#include "kvs/store.hh"

#include "base/logging.hh"

namespace elisa::kvs
{

namespace
{

// The operand buffer layout of the Vmcall and Elisa transports.
constexpr std::uint64_t keyOff = 0;
constexpr std::uint64_t valueOff = 64;
constexpr std::uint64_t desiredOff = 128;

/**
 * Apply @p copy(offset, field, bytes) to the key and to each value
 * @p op passes in; @p copy picks the direction.
 */
template <typename Copy>
void
operands(const StoreOp &op, OpArgs &args, Copy &&copy)
{
    copy(keyOff, args.key.data(), keyBytes);
    if (op.valuesIn > 0)
        copy(valueOff, args.value.data(), valueBytes);
    if (op.valuesIn > 1)
        copy(desiredOff, args.desired.data(), valueBytes);
}

/** Apply @p copy to the result value of a successful @p op. */
template <typename Copy>
void
result(const StoreOp &op, bool ok, OpArgs &args, Copy &&copy)
{
    if (ok && op.valueOut)
        copy(valueOff, args.value.data(), valueBytes);
}

/**
 * The serving side of the Vmcall and Elisa transports: read the
 * operands with @p read, run @p op against @p table, write the result
 * with @p write. @return the caller's rax (1 = ok).
 */
template <typename Read, typename Write>
std::uint64_t
serve(const StoreOp &op, cpu::Vcpu &cpu, RegionIo &table, Read &&read,
      Write &&write)
{
    OpArgs args;
    operands(op, args, read);
    const bool ok = op.run(cpu, table, args);
    result(op, ok, args, write);
    return ok ? 1 : 0;
}

} // anonymous namespace

const char *
schemeName(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Elisa:
        return "ELISA";
      case Scheme::Vmcall:
        return "VMCALL";
      case Scheme::Direct:
        return "ivshmem";
    }
    return "?";
}

Gpa
operandBuffer(hv::Vm &vm)
{
    auto buf = vm.allocGuestMem(pageSize);
    fatal_if(!buf, "VM '%s' out of RAM for a store operand buffer",
             vm.name().c_str());
    return *buf;
}

// ---- Store ------------------------------------------------------------

Store::Store(hv::Hypervisor &hv, Scheme scheme, const std::string &name,
             std::uint64_t bytes, StoreOps store_ops,
             core::ElisaManager *manager, Gpa window_gpa)
    : hyper(hv), kind(scheme), storeName(name), ops(std::move(store_ops)),
      window(window_gpa)
{
    bytes = pageAlignUp(bytes);
    switch (scheme) {
      case Scheme::Direct:
        region = std::make_unique<hv::IvshmemRegion>(hv, name, bytes);
        host = std::make_unique<net::HostRegionIo>(hv.memory(),
                                                   region->base());
        break;
      case Scheme::Vmcall: {
        pages = bytes / pageSize;
        auto base = hv.allocator().alloc(pages);
        fatal_if(!base, "out of host memory for store '%s'", name.c_str());
        frames = *base;
        host = std::make_unique<net::HostRegionIo>(hv.memory(), frames);
        // The host does the operation on the guest's behalf, charging
        // the guest's clock; the operands sit at arg0 in guest RAM.
        for (unsigned i = 0; i < ops.size(); ++i) {
            serviceNrs.push_back(hv.allocServiceNr());
            hv.registerHypercall(
                serviceNrs.back(),
                [this, i](cpu::Vcpu &vcpu, const cpu::HypercallArgs &args) {
                    cpu::GuestView view(vcpu);
                    const Gpa at = args.arg0;
                    return serve(
                        ops[i], vcpu, *host,
                        [&](std::uint64_t off, void *dst, std::uint64_t len) {
                            view.readBytes(at + off, dst, len);
                        },
                        [&](std::uint64_t off, void *src, std::uint64_t len) {
                            view.writeBytes(at + off, src, len);
                        });
                });
        }
        break;
      }
      case Scheme::Elisa: {
        panic_if(!manager, "an ELISA store needs a manager to export it");
        // The shared functions run in the sub EPT context; the operands
        // arrive in the caller's private exchange buffer.
        core::SharedFnTable fns;
        for (const StoreOp &op : ops) {
            fns.push_back([op](core::SubCallCtx &ctx) {
                cpu::Vcpu &vcpu = ctx.view.vcpu();
                net::GuestRegionIo obj(vcpu, ctx.obj);
                net::GuestRegionIo exch(vcpu, ctx.exch);
                return serve(
                    op, vcpu, obj,
                    [&](std::uint64_t off, void *dst, std::uint64_t len) {
                        exch.read(off, dst, len);
                    },
                    [&](std::uint64_t off, void *src, std::uint64_t len) {
                        exch.write(off, src, len);
                    });
            });
        }
        auto exported = manager->exportObject(core::ExportKey(name), bytes,
                                              std::move(fns));
        fatal_if(!exported, "exporting store '%s' failed", name.c_str());
        host = std::make_unique<net::HostRegionIo>(
            hv.memory(), manager->vm().ramGpaToHpa(exported->objectGpa));
        break;
      }
    }
}

Store::~Store()
{
    for (VmId id : attached)
        region->detach(hyper.vm(id), window);
    if (pages)
        hyper.allocator().free(frames, pages);
}

// ---- StoreClient ------------------------------------------------------

StoreClient::StoreClient(Store &store, hv::Vm &vm, unsigned vcpu_index,
                         Gpa buffer)
    : target(store), cpu(vm.vcpu(vcpu_index)), buf(buffer)
{
    panic_if(store.kind == Scheme::Elisa,
             "an ELISA store is reached through a gate");
    if (store.kind != Scheme::Direct)
        return;
    if (store.attached.insert(vm.id()).second) {
        fatal_if(!store.region->attach(vm, store.window),
                 "window collision for store '%s' in VM '%s'",
                 store.name().c_str(), vm.name().c_str());
    }
    view = std::make_unique<net::GuestRegionIo>(cpu, store.window);
}

StoreClient::StoreClient(Store &store, core::ElisaManager &manager,
                         core::ElisaGuest &guest)
    : target(store), cpu(guest.vcpu())
{
    core::AttachResult attached =
        guest.tryAttach(core::ExportKey(store.name()), manager);
    fatal_if(!attached, "attach to store '%s' failed: %s",
             store.name().c_str(), attached.reason().c_str());
    gate = attached.take();
}

std::optional<Value>
StoreClient::get(const Key &key)
{
    OpArgs args{key};
    if (!call(opGet, args))
        return std::nullopt;
    return args.value;
}

bool
StoreClient::put(const Key &key, const Value &value)
{
    OpArgs args{key, value};
    return call(opPut, args);
}

bool
StoreClient::remove(const Key &key)
{
    OpArgs args{key};
    return call(opRemove, args);
}

bool
StoreClient::cas(const Key &key, const Value &expected,
                 const Value &desired)
{
    OpArgs args{key, expected, desired};
    return call(opCas, args);
}

bool
StoreClient::call(unsigned op, OpArgs &args)
{
    panic_if(op >= target.ops.size(), "store '%s' has no operation %u",
             target.name().c_str(), op);
    const StoreOp &o = target.ops[op];
    switch (target.kind) {
      case Scheme::Direct:
        return o.run(cpu, *view, args);
      case Scheme::Vmcall: {
        cpu::GuestView guest(cpu);
        operands(o, args,
                 [&](std::uint64_t off, void *src, std::uint64_t len) {
                     guest.writeBytes(buf + off, src, len);
                 });
        const bool ok = cpu.vmcall({target.serviceNrs[op], buf}) == 1;
        result(o, ok, args,
               [&](std::uint64_t off, void *dst, std::uint64_t len) {
                   guest.readBytes(buf + off, dst, len);
               });
        return ok;
      }
      case Scheme::Elisa: {
        operands(o, args,
                 [&](std::uint64_t off, void *src, std::uint64_t len) {
                     gate.writeExchange(off, src, len);
                 });
        const bool ok = gate.call(op) == 1;
        result(o, ok, args,
               [&](std::uint64_t off, void *dst, std::uint64_t len) {
                   gate.readExchange(off, dst, len);
               });
        return ok;
      }
    }
    return false;
}

} // namespace elisa::kvs
