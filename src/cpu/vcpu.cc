#include "cpu/vcpu.hh"

#include "base/logging.hh"
#include "cpu/exit.hh"

namespace elisa::cpu
{

Vcpu::Vcpu(VcpuId id, VmId owner, mem::HostMemory &memory,
           mem::FrameAllocator &allocator, const sim::CostModel &cost_model,
           HypercallSink *sink)
    : vcpuId(id), ownerVm(owner), mem(memory), cost(cost_model),
      hypercallSink(sink),
      list(std::make_unique<ept::EptpList>(memory, allocator))
{
    panic_if(sink == nullptr, "vcpu needs a hypercall sink");

    hotIds.vmfunc = statSet.id("vmfunc");
    hotIds.vmfuncFail = statSet.id("vmfunc_fail");
    hotIds.vmcall = statSet.id("vmcall");
    hotIds.cpuid = statSet.id("cpuid");
    hotIds.eptWalk = statSet.id("ept_walk");
    hotIds.eptAdUpdate = statSet.id("ept_ad_update");
    hotIds.eptViolation = statSet.id("ept_violation");
    hotIds.l0Hit = statSet.id("l0_hit");
    translationCache.attachStats(statSet);
}

void
Vcpu::traceVmfunc(std::uint64_t leaf, EptpIndex index)
{
    tracerPtr->instant(sim::SpanCat::Cpu, sim::TraceName::Vmfunc, vcpuId,
                       simClock.now(), leaf, index);
}

void
Vcpu::setLedger(sim::ExitLedger *ledger)
{
    ledgerPtr = ledger;
    hypercallSlots.clear();
    if (ledgerPtr) {
        cpuidSlot = ledgerPtr->slot(
            ownerVm, vcpuId, sim::CostKind::Exit,
            static_cast<std::uint32_t>(ExitReason::Cpuid));
    }
}

void
Vcpu::chargeHypercall(std::uint64_t nr, SimNs ns)
{
    auto [it, inserted] = hypercallSlots.try_emplace(nr, 0);
    if (inserted) {
        it->second = ledgerPtr->slot(
            ownerVm, vcpuId, sim::CostKind::Hypercall,
            static_cast<std::uint32_t>(nr));
    }
    ledgerPtr->charge(it->second, ns);
}

void
Vcpu::chargeCpuid(SimNs ns)
{
    ledgerPtr->charge(cpuidSlot, ns);
}

void
Vcpu::activateEptp(EptpIndex index)
{
    auto eptp = list->lookup(index);
    panic_if(!eptp, "activating invalid EPTP list entry %u", index);
    currentEptp = *eptp;
    currentIndex = index;
    translationCache.bumpEpoch();
}

void
Vcpu::vmfunc(std::uint64_t leaf, EptpIndex index)
{
    // The switch attempt itself consumes the instruction's time before
    // any fault is raised.
    simClock.advance(cost.vmfuncNs);
    statSet.inc(hotIds.vmfunc);
    if (tracerPtr) [[unlikely]]
        traceVmfunc(leaf, index);

    if (leaf != 0) {
        statSet.inc(hotIds.vmfuncFail);
        throw VmExitEvent(ExitReason::VmfuncFail, leaf);
    }
    auto eptp = list->lookup(index);
    if (!eptp) {
        statSet.inc(hotIds.vmfuncFail);
        throw VmExitEvent(ExitReason::VmfuncFail, index);
    }
    currentEptp = *eptp;
    currentIndex = index;
    translationCache.bumpEpoch();
}

std::uint64_t
Vcpu::vmcall(const HypercallArgs &args)
{
    statSet.inc(hotIds.vmcall);
    simClock.advance(cost.vmexitNs);
    simClock.advance(cost.hypercallDispatchNs);
    // Frame the exit/entry round trip; the hypervisor nests its own
    // dispatch span (with the hypercall's name) inside this one. The
    // RAII span closes the frame even when the handler throws a
    // VmExitEvent (e.g. an injected KillVm fault).
    sim::ScopedSpan span(tracerPtr, sim::SpanCat::Cpu,
                         sim::TraceName::Vmcall, vcpuId, simClock,
                         args.nr);
    // Ledger double-entry, exception-safe: the exit+dispatch ns above
    // are charged even when the handler throws (the VM runner then
    // charges the faulting exit separately), the vmentry ns only when
    // the instruction actually re-enters. Local class so the unwind
    // path needs no try/catch in this hot function.
    struct LedgerGuard
    {
        Vcpu &vcpu;
        const std::uint64_t nr;
        SimNs ns;
        ~LedgerGuard()
        {
            if (vcpu.ledgerPtr) [[unlikely]]
                vcpu.chargeHypercall(nr, ns);
        }
    } guard{*this, args.nr,
            cost.vmexitNs + cost.hypercallDispatchNs};
    const std::uint64_t rax = hypercallSink->handleHypercall(*this, args);
    simClock.advance(cost.vmentryNs);
    guard.ns += cost.vmentryNs;
    span.setEndArgs(rax);
    return rax;
}

std::uint64_t
Vcpu::cpuid(std::uint64_t leaf)
{
    statSet.inc(hotIds.cpuid);
    simClock.advance(cost.cpuidRttNs());
    if (ledgerPtr) [[unlikely]]
        chargeCpuid(cost.cpuidRttNs());
    // Canned vendor response; the value is irrelevant to the model.
    return 0x656c6973ull ^ leaf;
}

} // namespace elisa::cpu
