/**
 * @file
 * vm_churn: one operation is one VM lifecycle on the 1.5 GiB figure
 * machine. It creates a 2 MiB guest, attaches to a manager export
 * through the negotiation protocol, makes a few Gate::calls that read
 * stamped object pages, detaches and destroys the VM. Here VM
 * lifecycle, frame allocation and zeroing, EPT context build and
 * teardown and ELISA negotiation are the steady state; every figure
 * point and kill matrix pays them per VM, and no engine runs.
 *
 * The guest is 2 MiB rather than the 32 MiB default: at 32 MiB a
 * lifecycle is ~90 % a memset through DRAM, whose rate swung 40 %
 * between runs on the shared reference host; at 2 MiB the zeroing stays
 * cache-sized and EPT build, negotiation and teardown show beside it.
 */

#include <optional>
#include <stdexcept>

#include "cpu/exit.hh"
#include "elisa/gate.hh"
#include "sim/rng.hh"
#include "workload.hh"

namespace perfbench
{

using namespace elisa;

namespace
{

constexpr std::uint64_t physBytes = 3 * GiB / 2;
constexpr std::uint64_t guestRam = 2 * MiB;
constexpr std::uint64_t objectBytes = 64 * KiB;
constexpr std::uint64_t objectPages = objectBytes / pageSize;
constexpr unsigned callsPerOp = 4;
constexpr unsigned opsPerSlice = 75;

constexpr std::uint64_t
stamp(std::uint64_t page)
{
    return 0xc4c40000 + page;
}

class VmChurn : public Workload
{
  public:
    VmChurn(std::uint64_t seed, Trace *trace)
        : seed(seed), tr(trace),
          machine(std::make_unique<Bed>(physBytes, trace)),
          key("churn-obj")
    {
        core::SharedFnTable fns;
        fns.push_back([](core::SubCallCtx &ctx) { // 0: read64(offset)
            return ctx.view.read<std::uint64_t>(ctx.obj + ctx.arg0);
        });
        std::optional<core::ElisaManager::Exported> exported;
        {
            SpanScope s = span(tr, &Names::exportObject);
            exported = machine->manager().exportObject(key, objectBytes,
                                                       std::move(fns));
        }
        if (!exported)
            throw std::runtime_error("vm_churn: export failed");
        cpu::GuestView mview(machine->manager().vcpu());
        for (std::uint64_t page = 0; page < objectPages; ++page) {
            mview.write<std::uint64_t>(
                exported->objectGpa + page * pageSize, stamp(page));
        }
        baseVms = machine->hv().vmCount();
    }

    std::uint64_t
    runSlice(std::uint64_t index) override
    {
        sim::Rng rng(sliceSeed(seed, index));
        for (unsigned op = 0; op < opsPerSlice; ++op) {
            if (!lifecycle(rng))
                ++failed;
        }
        return opsPerSlice;
    }

    Bed &bed() override { return *machine; }

  private:
    /** One create / attach / call / detach / destroy; true when clean. */
    bool
    lifecycle(sim::Rng &rng)
    {
        if (tr)
            tr->rec.newOp();
        hv::Vm &vm = machine->createVm("churn", guestRam);
        bool ok = true;
        {
            core::ElisaGuest guest(vm, machine->svc());
            core::AttachResult attached = [&] {
                SpanScope s = span(tr, &Names::tryAttach);
                return guest.tryAttach(key, machine->manager());
            }();
            ok = attached.ok();
            if (ok) {
                core::Gate gate = attached.take();
                try {
                    for (unsigned c = 0; c < callsPerOp; ++c) {
                        const std::uint64_t page = rng.below(objectPages);
                        std::uint64_t value = 0;
                        {
                            SpanScope s = span(tr, &Names::gateCall);
                            value = gate.call(0, page * pageSize);
                        }
                        ok = ok && value == stamp(page);
                    }
                    SpanScope s = span(tr, &Names::gateDetach);
                    ok = gate.detach() && ok;
                } catch (const cpu::VmExitEvent &) {
                    ok = false;
                }
            }
        }
        machine->destroyVm(vm);
        return ok && machine->hv().vmCount() == baseVms;
    }

    std::uint64_t seed;
    Trace *tr;
    std::unique_ptr<Bed> machine;
    core::ExportKey key;
    std::size_t baseVms = 0;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeVmChurn(std::uint64_t seed, Trace *trace)
{
    return std::make_unique<VmChurn>(seed, trace);
}

} // namespace perfbench
