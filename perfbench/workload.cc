#include "workload.hh"

#include <algorithm>

namespace perfbench
{

using namespace elisa;

namespace
{

constexpr std::uint64_t Counters::*counterFields[] = {
    &Counters::l0Hit,      &Counters::tlbHit,      &Counters::tlbMiss,
    &Counters::eptWalk,    &Counters::vmfunc,      &Counters::vmcall,
    &Counters::hypercalls, &Counters::pagerFaults, &Counters::swapIns,
    &Counters::swapOuts,   &Counters::zeroFills,
};

} // anonymous namespace

Counters
Counters::operator-(const Counters &base) const
{
    Counters d;
    for (auto field : counterFields)
        d.*field = this->*field - base.*field;
    return d;
}

Counters &
Counters::operator+=(const Counters &other)
{
    for (auto field : counterFields)
        this->*field += other.*field;
    return *this;
}

std::vector<std::uint64_t>
Counters::fields() const
{
    std::vector<std::uint64_t> out;
    for (auto field : counterFields)
        out.push_back(this->*field);
    return out;
}

Names::Names(SpanRecorder &rec)
    : machineBuild(rec.intern("hv.Hypervisor")),
      createVm(rec.intern("hv.createVm")),
      destroyVm(rec.intern("hv.destroyVm")),
      exportObject(rec.intern("elisa.exportObject")),
      tryAttach(rec.intern("elisa.tryAttach")),
      gateCall(rec.intern("elisa.Gate.call")),
      gateDetach(rec.intern("elisa.Gate.detach")),
      vmcall(rec.intern("cpu.Vcpu.vmcall")),
      prepopulate(rec.intern("kvs.prepopulate")),
      runKvsWorkload(rec.intern("kvs.runKvsWorkload")),
      runVm2Vm(rec.intern("net.runVm2Vm"))
{
}

Bed::Bed(std::uint64_t phys_bytes, Trace *trace) : tr(trace)
{
    {
        // The default cost model, never CostModel::fromEnv(): the
        // simulated outcome must not depend on the environment.
        SpanScope s = span(tr, &Names::machineBuild);
        hyper = std::make_unique<hv::Hypervisor>(phys_bytes,
                                                 sim::CostModel{});
    }
    service = std::make_unique<core::ElisaService>(*hyper);
    mgrVm = &createVm("manager", 128 * MiB);
    mgr = std::make_unique<core::ElisaManager>(*mgrVm, *service);
}

hv::Vm &
Bed::createVm(const std::string &name, std::uint64_t ram)
{
    SpanScope s = span(tr, &Names::createVm);
    hv::Vm &vm = hyper->createVm(name, ram);
    live.push_back(vm.id());
    return vm;
}

void
Bed::destroyVm(hv::Vm &vm)
{
    const VmId id = vm.id();
    retired += vmCounters(vm);
    for (unsigned i = 0; i < vm.vcpuCount(); ++i)
        retiredClocks.add(vm.vcpu(i).clock().now());
    {
        SpanScope s = span(tr, &Names::destroyVm);
        hyper->destroyVm(id);
    }
    live.erase(std::find(live.begin(), live.end(), id));
}

Counters
Bed::vmCounters(hv::Vm &vm)
{
    Counters c;
    for (unsigned i = 0; i < vm.vcpuCount(); ++i) {
        cpu::Vcpu &cpu = vm.vcpu(i);
        const sim::StatSet &st = cpu.stats();
        const cpu::HotStatIds &ids = cpu.statIds();
        c.l0Hit += st.get(ids.l0Hit);
        c.tlbHit += st.get("tlb_hit");
        c.tlbMiss += st.get("tlb_miss");
        c.eptWalk += st.get(ids.eptWalk);
        c.vmfunc += st.get(ids.vmfunc);
        c.vmcall += st.get(ids.vmcall);
    }
    return c;
}

Counters
Bed::counters()
{
    Counters c = retired;
    for (VmId id : live)
        c += vmCounters(hyper->vm(id));
    const sim::StatSet &st = hyper->stats();
    c.hypercalls = st.get("hypercalls");
    c.pagerFaults = st.get("pager_faults");
    c.swapIns = st.get("pager_pages_swapped_in");
    c.swapOuts = st.get("pager_pages_swapped_out");
    c.zeroFills = st.get("pager_zero_fills");
    return c;
}

void
Bed::digest(Digest &d)
{
    for (VmId id : live) {
        hv::Vm &vm = hyper->vm(id);
        for (unsigned i = 0; i < vm.vcpuCount(); ++i)
            d.add(vm.vcpu(i).clock().now());
    }
    d.add(retiredClocks.value());
}

std::uint64_t
sliceSeed(std::uint64_t seed, std::uint64_t index)
{
    // splitmix64 finalizer over (seed, index): decorrelated streams.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

const std::vector<WorkloadSpec> &
workloads()
{
    // slicesPerSecond sizes a run by work: undisturbed, each slice
    // takes about 1/slicesPerSecond seconds on the 4-core reference
    // host (a Firecracker VM on a Xeon); interference stretches it.
    static const std::vector<WorkloadSpec> specs = {
        {"kvs_mix", 20, 100, makeKvsMix},
        {"vm_churn", 20, 100, makeVmChurn},
        {"net_vm2vm", 20, 100, makeNetVm2Vm},
        {"paged_object", 20, 100, makePagedObject},
    };
    return specs;
}

} // namespace perfbench
