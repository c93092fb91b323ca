/**
 * @file
 * paged_object: a 256 KiB manager-exported object, demand-paged under
 * a resident budget of half its pages on the 1.5 GiB P1 machine. One
 * 32 MiB guest issues zipfian touches through an ELISA gate, through a
 * VMCALL whose handler calls Pager::hostTouch, and through an ivshmem
 * window registered with Pager::addMirror. This is the workload where
 * hv::Pager and mem::BackingStore do most of the work: frames and swap
 * slots are scrubbed and freed one page at a time, where vm_churn frees
 * whole VM-RAM runs.
 */

#include <optional>
#include <stdexcept>

#include "cpu/guest_view.hh"
#include "elisa/gate.hh"
#include "hv/paging.hh"
#include "sim/histogram.hh"
#include "sim/rng.hh"
#include "sim/zipf.hh"
#include "workload.hh"

namespace perfbench
{

using namespace elisa;

namespace
{

constexpr std::uint64_t physBytes = 3 * GiB / 2;
constexpr std::uint64_t guestRam = 32 * MiB;
constexpr std::uint64_t objectBytes = 256 * KiB;
constexpr std::uint64_t objectPages = objectBytes / pageSize;
constexpr std::uint64_t residentBudget = objectPages / 2;
constexpr double zipfSkew = 0.99;
constexpr std::uint64_t touchesPerScheme = 2200;
/** Guest GPA of the ivshmem window, above guest RAM. */
constexpr Gpa windowGpa = 1 * GiB;

constexpr std::uint64_t
stamp(std::uint64_t page)
{
    return 0x0bec0000 + page;
}

enum class Scheme
{
    Elisa,
    Vmcall,
    Ivshmem,
};

class PagedObject : public Workload
{
  public:
    PagedObject(std::uint64_t seed, Trace *trace)
        : seed(seed), tr(trace),
          machine(std::make_unique<Bed>(physBytes, trace)),
          zipf(objectPages, zipfSkew)
    {
        hv::Hypervisor &hv = machine->hv();
        hv::Pager &pager =
            hv.enablePaging({/*residentLimitFrames=*/residentBudget,
                             /*swapSlots=*/objectPages * 2});
        const core::ExportKey key("paged-obj");
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
            throw std::runtime_error("paged_object: export failed");
        const Hpa objHpa =
            machine->managerVm().ramGpaToHpa(exported->objectGpa);
        pager.manageObject(machine->managerVm(), objHpa, objectBytes, true);

        // The manager stamps every page, faulting each in and, once the
        // budget binds, pushing the cold tail out to swap.
        cpu::GuestView mview(machine->managerVm().vcpu(0));
        for (std::uint64_t page = 0; page < objectPages; ++page) {
            mview.write<std::uint64_t>(
                exported->objectGpa + page * pageSize, stamp(page));
        }

        hv::Vm &guestVm = machine->createVm("guest", guestRam);
        guest = std::make_unique<core::ElisaGuest>(guestVm, machine->svc());
        vcpu = &guestVm.vcpu(0);
        core::AttachResult attached = [&] {
            SpanScope s = span(tr, &Names::tryAttach);
            return guest->tryAttach(key, machine->manager());
        }();
        if (!attached)
            throw std::runtime_error("paged_object: attach failed");
        gate = attached.take();

        vmcallNr = hv.allocServiceNr();
        hv.registerHypercall(
            vmcallNr, [&pager, &hv, objHpa](cpu::Vcpu &caller,
                                            const cpu::HypercallArgs &args) {
                // Host interposition: page the target in (billed to the
                // caller) and read on its behalf.
                if (!pager.hostTouch(caller, objHpa + args.arg0, 8))
                    return hv::hcError;
                return hv.memory().read64(objHpa + args.arg0);
            });

        if (!guestVm.defaultEpt().mapRange(windowGpa, objHpa, objectBytes,
                                           ept::Perms::Read)) {
            throw std::runtime_error("paged_object: window collided");
        }
        pager.addMirror(guestVm.defaultEpt(), windowGpa, objHpa,
                        objectBytes);
        view = std::make_unique<cpu::GuestView>(*vcpu);

        if (tr) {
            SpanRecorder &rec = tr->rec;
            touchNames[0] = rec.intern("paged.touch.elisa");
            touchNames[1] = rec.intern("paged.touch.vmcall");
            touchNames[2] = rec.intern("paged.touch.ivshmem");
            swapInId = hv.stats().id("pager_pages_swapped_in");
            zeroFillId = hv.stats().id("pager_zero_fills");
        }

        // Touch every page once through each scheme, so the first
        // slice starts with warm L0 lines and a settled resident set.
        for (Scheme scheme : {Scheme::Elisa, Scheme::Vmcall,
                              Scheme::Ivshmem}) {
            for (std::uint64_t page = 0; page < objectPages; ++page) {
                if (!touch(scheme, page))
                    ++failed;
            }
        }
    }

    std::uint64_t
    runSlice(std::uint64_t index) override
    {
        sim::Rng rng(sliceSeed(seed, index));
        for (Scheme scheme : {Scheme::Elisa, Scheme::Vmcall,
                              Scheme::Ivshmem}) {
            for (std::uint64_t t = 0; t < touchesPerScheme; ++t) {
                const std::uint64_t page = sim::Zipf::spreadRank(
                    zipf.sample(rng), objectPages);
                if (!touch(scheme, page))
                    ++failed;
            }
        }
        outcome.add(vcpu->clock().now());
        return 3 * touchesPerScheme;
    }

    Bed &bed() override { return *machine; }

    void
    layerMetrics(std::vector<Metric> &out) override
    {
        out.push_back({"hv.fault_touch_ns.p50",
                       static_cast<double>(faultTouch.p50()), "ns"});
        out.push_back({"hv.fault_touch_ns.p99",
                       static_cast<double>(faultTouch.p99()), "ns"});
        out.push_back({"hv.fault_touch_ns.n",
                       static_cast<double>(faultTouch.count()), "count"});
        out.push_back({"hv.hit_touch_ns.p50",
                       static_cast<double>(hitTouch.p50()), "ns"});
        out.push_back({"hv.hit_touch_ns.n",
                       static_cast<double>(hitTouch.count()), "count"});
    }

  private:
    /** Read @p page's stamp through @p scheme; true when it matches. */
    bool
    touch(Scheme scheme, std::uint64_t page)
    {
        if (!tr)
            return read(scheme, page) == stamp(page);

        // Traced: one operation per touch, classified as a fault touch
        // when the pager brought a page in during it.
        SpanRecorder &rec = tr->rec;
        const sim::StatSet &st = machine->hv().stats();
        const std::uint64_t in0 = st.get(swapInId) + st.get(zeroFillId);
        rec.newOp();
        const SpanIndex idx =
            rec.begin(touchNames[static_cast<unsigned>(scheme)]);
        const std::uint64_t value = read(scheme, page);
        const std::int64_t ns = rec.end(idx);
        const bool faulted =
            st.get(swapInId) + st.get(zeroFillId) != in0;
        (faulted ? faultTouch : hitTouch)
            .record(static_cast<std::uint64_t>(ns));
        return value == stamp(page);
    }

    std::uint64_t
    read(Scheme scheme, std::uint64_t page)
    {
        const std::uint64_t off = page * pageSize;
        try {
            switch (scheme) {
              case Scheme::Elisa: {
                SpanScope s = span(tr, &Names::gateCall);
                return gate.call(0, off);
              }
              case Scheme::Vmcall: {
                cpu::HypercallArgs args;
                args.nr = vmcallNr;
                args.arg0 = off;
                SpanScope s = span(tr, &Names::vmcall);
                return vcpu->vmcall(args);
              }
              case Scheme::Ivshmem:
                return view->read<std::uint64_t>(windowGpa + off);
            }
        } catch (const cpu::VmExitEvent &) {
        }
        return ~std::uint64_t{0};
    }

    std::uint64_t seed;
    Trace *tr;
    std::unique_ptr<Bed> machine;
    sim::Zipf zipf;
    std::unique_ptr<core::ElisaGuest> guest;
    cpu::Vcpu *vcpu = nullptr;
    core::Gate gate;
    std::uint64_t vmcallNr = 0;
    std::unique_ptr<cpu::GuestView> view;
    SpanName touchNames[3] = {};
    sim::StatId swapInId = 0, zeroFillId = 0;
    sim::Histogram faultTouch{6, 1ull << 40};
    sim::Histogram hitTouch{6, 1ull << 40};
};

} // anonymous namespace

std::unique_ptr<Workload>
makePagedObject(std::uint64_t seed, Trace *trace)
{
    return std::make_unique<PagedObject>(seed, trace);
}

} // namespace perfbench
