#include "elisa/gate.hh"

#include "base/logging.hh"
#include "cpu/exit.hh"
#include "cpu/guest_view.hh"
#include "hv/hypercall.hh"

namespace elisa::core
{

namespace
{

using sim::TraceName;

/**
 * Span for the traced gate body; the untraced instantiation uses the
 * primary template, an empty no-op, so it compiles to exactly the
 * uninstrumented code (no cleanup landing pads, no member spills).
 */
template <bool Traced>
struct GateSpan
{
    GateSpan(sim::Tracer *, TraceName, std::uint32_t,
             const sim::SimClock &, std::uint64_t = 0,
             std::uint64_t = 0)
    {}

    void setEndArgs(std::uint64_t, std::uint64_t = 0) {}
};

template <>
struct GateSpan<true> : sim::ScopedSpan
{
    GateSpan(sim::Tracer *tr, TraceName name, std::uint32_t track,
             const sim::SimClock &clock, std::uint64_t a0 = 0,
             std::uint64_t a1 = 0)
        : sim::ScopedSpan(tr, sim::SpanCat::Gate, name, track, clock, a0,
                          a1)
    {}
};

} // anonymous namespace

const char *
gateLegToString(GateLeg leg)
{
    switch (leg) {
      case GateLeg::EnterSwitch:
        return "enter_switch";
      case GateLeg::Prologue:
        return "prologue";
      case GateLeg::SubSwitch:
        return "sub_switch";
      case GateLeg::ReturnSwitch:
        return "return_switch";
      case GateLeg::Epilogue:
        return "epilogue";
      case GateLeg::ExitSwitch:
        return "exit_switch";
    }
    return "?";
}

void
registerGateLegNames(sim::ExitLedger &ledger)
{
    for (unsigned l = 0; l < gateLegCount; ++l) {
        ledger.setCodeName(sim::CostKind::GateLeg, l,
                           gateLegToString(static_cast<GateLeg>(l)));
    }
}

void
Gate::resolveLegSlots(sim::ExitLedger &ledger)
{
    if (ledgerSerial == ledger.serial())
        return;
    registerGateLegNames(ledger);
    for (unsigned l = 0; l < gateLegCount; ++l) {
        legSlots[l] = ledger.slot(ownerVm, cpuPtr->id(),
                                  sim::CostKind::GateLeg, l);
    }
    ledgerSerial = ledger.serial();
}

Gate::Gate(cpu::Vcpu &vcpu, ElisaService &service, const AttachInfo &info)
    : cpuPtr(&vcpu), svc(&service), attachInfo(info), ownerVm(vcpu.vm())
{
    callsId = vcpu.stats().id("elisa_calls");
    batchedFnsId = vcpu.stats().id("elisa_batched_fns");
    badFnId = vcpu.stats().id("elisa_bad_fn");
}

Gate::Gate(Gate &&other) noexcept
    : cpuPtr(other.cpuPtr), svc(other.svc), attachInfo(other.attachInfo),
      ownerVm(other.ownerVm), callsId(other.callsId),
      batchedFnsId(other.batchedFnsId), badFnId(other.badFnId),
      ledgerSerial(other.ledgerSerial)
{
    for (unsigned l = 0; l < gateLegCount; ++l)
        legSlots[l] = other.legSlots[l];
    other.cpuPtr = nullptr;
    other.svc = nullptr;
}

Gate &
Gate::operator=(Gate &&other) noexcept
{
    if (this != &other) {
        try {
            detach();
        } catch (...) {
            // Same contract as the destructor: the replaced handle is
            // gone either way and host-side teardown is idempotent.
        }
        cpuPtr = other.cpuPtr;
        svc = other.svc;
        attachInfo = other.attachInfo;
        ownerVm = other.ownerVm;
        callsId = other.callsId;
        batchedFnsId = other.batchedFnsId;
        badFnId = other.badFnId;
        ledgerSerial = other.ledgerSerial;
        for (unsigned l = 0; l < gateLegCount; ++l)
            legSlots[l] = other.legSlots[l];
        other.cpuPtr = nullptr;
        other.svc = nullptr;
    }
    return *this;
}

Gate::~Gate()
{
    try {
        detach();
    } catch (...) {
        // An injected fault (VM exit) raised by the detach hypercall
        // cannot propagate out of a destructor; the attachment is
        // retired host-side regardless.
    }
}

bool
Gate::detach()
{
    if (!valid())
        return false;
    // Invalidate first: whatever the hypercall below does (including
    // unwinding with a VM exit), this handle must never retry through
    // a vCPU that may be mid-teardown.
    cpu::Vcpu *cpu = cpuPtr;
    ElisaService *service = svc;
    const AttachmentId aid = attachInfo.attachment;
    cpuPtr = nullptr;
    svc = nullptr;
    // The vCPU is owned by the guest VM; when that VM already died
    // (injected KillVm, teardown order) the hypervisor's destroy hook
    // retired the attachment and there is no vCPU to hypercall from.
    if (!service->hypervisor().hasVm(ownerVm))
        return false;
    cpu::HypercallArgs args;
    args.nr = static_cast<std::uint64_t>(ElisaHc::Detach);
    args.arg0 = aid;
    return cpu->vmcall(args) != hv::hcError;
}

void
Gate::maybeInjectStale() const
{
    sim::FaultPlan *plan = svc->hypervisor().faultPlan();
    if (!plan)
        return;
    const sim::FaultDecision fault = plan->onGateCall(cpuPtr->vm());
    if (fault.action != sim::FaultAction::GateStale)
        return;
    // Model a concurrent revocation racing this call: the gate's
    // EPTP-list entry is already gone, so the entry VMFUNC faults
    // into a VM exit exactly like Vcpu::vmfunc on an invalid index.
    cpu::Vcpu &cpu = *cpuPtr;
    cpu.clock().advance(cpu.costModel().vmfuncNs);
    cpu.stats().inc(cpu.statIds().vmfunc);
    cpu.stats().inc(cpu.statIds().vmfuncFail);
    throw cpu::VmExitEvent(cpu::ExitReason::VmfuncFail,
                           attachInfo.gateIndex);
}

void
Gate::maybeExpire()
{
    if (attachInfo.expiresNs == 0)
        return;
    cpu::Vcpu &cpu = *cpuPtr;
    if (cpu.clock().now() < attachInfo.expiresNs)
        return;
    // The grant lapsed. Host-side teardown first (the one canonical
    // routine: EPTP-list entries cleared and TLBs flushed before the
    // bookkeeping goes), then this handle dies and the entry VMFUNC
    // faults on the now-cleared index — the same exit a concurrent
    // revocation would produce.
    const EptpIndex gate_index = attachInfo.gateIndex;
    svc->expireCapability(attachInfo.capability, cpu);
    cpuPtr = nullptr;
    svc = nullptr;
    cpu.clock().advance(cpu.costModel().vmfuncNs);
    cpu.stats().inc(cpu.statIds().vmfunc);
    cpu.stats().inc(cpu.statIds().vmfuncFail);
    throw cpu::VmExitEvent(cpu::ExitReason::VmfuncFail, gate_index);
}

const SharedFnTable &
Gate::resolveTable() const
{
    Attachment *attach = svc->attachment(attachInfo.attachment);
    panic_if(attach == nullptr,
             "attachment vanished while its EPTP stayed installed");
    return attach->exportRecord().functions();
}

void
Gate::badFn(unsigned fn) const
{
    // An out-of-range id is a jump to an unmapped sub-context
    // address: raise the fetch fault the MMU would.
    ept::EptViolation violation;
    violation.gpa = gateCodeGpa + pageSize + fn * 16;
    violation.access = ept::Access::Exec;
    violation.notMapped = true;
    cpuPtr->stats().inc(badFnId);
    throw cpu::VmExitEvent(violation);
}

std::uint64_t
Gate::call(unsigned fn, std::uint64_t arg0, std::uint64_t arg1,
           std::uint64_t arg2)
{
    panic_if(!valid(), "call through an invalid gate");
    maybeExpire();
    // The whole instrumentation decision is these two branches (see
    // callImpl): the plain instantiation is the uninstrumented code.
    const bool ledgered = cpuPtr->ledger() != nullptr;
    if (cpuPtr->tracer()) {
        return ledgered ? callImpl<true, true>(fn, arg0, arg1, arg2)
                        : callImpl<true, false>(fn, arg0, arg1, arg2);
    }
    return ledgered ? callImpl<false, true>(fn, arg0, arg1, arg2)
                    : callImpl<false, false>(fn, arg0, arg1, arg2);
}

template <bool Traced, bool Ledgered>
std::uint64_t
Gate::callImpl(unsigned fn, std::uint64_t arg0, std::uint64_t arg1,
               std::uint64_t arg2)
{
    cpu::Vcpu &cpu = *cpuPtr;
    const sim::CostModel &cost = cpu.costModel();
    const EptpIndex caller_index = cpu.activeIndex();
    sim::Tracer *tr = Traced ? cpu.tracer() : nullptr;
    const std::uint32_t track = cpu.id();

    // Ledgered instantiation: per-leg simulated-clock deltas, charged
    // only on leg completion so a faulting leg is attributed to the
    // exit (by the VM runner), never double-counted here.
    sim::ExitLedger *led = nullptr;
    SimNs leg_start = 0;
    if constexpr (Ledgered) {
        led = cpu.ledger();
        resolveLegSlots(*led);
    }
    auto charge_leg = [&](GateLeg leg) {
        const SimNs now = cpu.clock().now();
        led->observe(legSlots[static_cast<unsigned>(leg)],
                     now - leg_start);
        leg_start = now;
    };

    // Whole-call span: opened before the stale-EPTP injection point so
    // a faulted entry is attributed to this call; the RAII end closes
    // it on every unwind path. A successful call stamps (ret, fn+1) on
    // the close; a faulted one leaves (0, 0).
    GateSpan<Traced> call_span(tr, TraceName::GateCall, track,
                               cpu.clock(), fn);
    maybeInjectStale();

    if constexpr (Ledgered)
        leg_start = cpu.clock().now();

    // --- enter: default -> gate ------------------------------------
    {
        GateSpan<Traced> s(tr, TraceName::EptpSwitch, track, cpu.clock(),
                           attachInfo.gateIndex);
        cpu.vmfunc(0, attachInfo.gateIndex);
    }
    if constexpr (Ledgered)
        charge_leg(GateLeg::EnterSwitch);

    // Gate prologue: the trampoline must be executable here, and the
    // spill area must live on the isolated stack. Non-charging view:
    // checks real, time folded into gateCodeNs.
    cpu::GuestView gate_view(cpu, /*charge_time=*/false);
    {
        GateSpan<Traced> s(tr, TraceName::StackSwap, track, cpu.clock());
        gate_view.fetchCheck(gateCodeGpa);
        const std::uint64_t spill[4] = {caller_index, arg0, arg1, arg2};
        gate_view.writeBytes(gateStackGpa, spill, sizeof(spill));
        cpu.clock().advance(cost.gateCodeNs);
    }
    if constexpr (Ledgered)
        charge_leg(GateLeg::Prologue);

    // --- gate -> sub --------------------------------------------------
    {
        GateSpan<Traced> s(tr, TraceName::EptpSwitch, track, cpu.clock(),
                           attachInfo.subIndex);
        cpu.vmfunc(0, attachInfo.subIndex);
    }
    if constexpr (Ledgered)
        charge_leg(GateLeg::SubSwitch);

    const SharedFnTable &table = resolveTable();
    if (fn >= table.size())
        badFn(fn);

    // Run the shared function under the sub context with a charging
    // view: every byte it touches is translated, checked, and costed.
    // A fault inside the shared function unwinds through the gate; the
    // vCPU is parked back in its default context by the VM runner's
    // fault policy, so nothing needs restoring here.
    cpu::GuestView sub_view(cpu);
    SubCallCtx ctx{sub_view,
                   objectGpa,
                   attachInfo.objectBytes,
                   exchangeGpa,
                   attachInfo.exchangeBytes,
                   arg0,
                   arg1,
                   arg2};
    std::uint64_t ret;
    {
        GateSpan<Traced> s(tr, TraceName::Payload, track, cpu.clock(), fn);
        ret = table[fn](ctx);
    }

    // Payload time belongs to the shared function, not the mechanism:
    // restart the leg clock at the return phase.
    if constexpr (Ledgered)
        leg_start = cpu.clock().now();

    {
        GateSpan<Traced> s(tr, TraceName::Return, track, cpu.clock());
        // --- sub -> gate ------------------------------------------
        {
            GateSpan<Traced> sw(tr, TraceName::EptpSwitch, track,
                                cpu.clock(), attachInfo.gateIndex);
            cpu.vmfunc(0, attachInfo.gateIndex);
        }
        if constexpr (Ledgered)
            charge_leg(GateLeg::ReturnSwitch);

        // Gate epilogue: reload the spill, verify trampoline still
        // there.
        gate_view.fetchCheck(gateCodeGpa);
        std::uint64_t restore[4];
        gate_view.readBytes(gateStackGpa, restore, sizeof(restore));
        cpu.clock().advance(cost.gateCodeNs);
        if constexpr (Ledgered)
            charge_leg(GateLeg::Epilogue);

        // --- gate -> default --------------------------------------
        GateSpan<Traced> sw(tr, TraceName::EptpSwitch, track,
                            cpu.clock(), restore[0]);
        cpu.vmfunc(0, static_cast<EptpIndex>(restore[0]));
        if constexpr (Ledgered)
            charge_leg(GateLeg::ExitSwitch);
    }
    cpu.stats().inc(callsId);
    call_span.setEndArgs(ret, fn + 1);
    return ret;
}

std::size_t
Gate::callBatch(std::span<BatchEntry> entries)
{
    panic_if(!valid(), "batched call through an invalid gate");
    maybeExpire();
    if (entries.empty())
        return 0;
    // Same single-branch instrumentation decisions as call().
    const bool ledgered = cpuPtr->ledger() != nullptr;
    if (cpuPtr->tracer()) {
        return ledgered ? callBatchImpl<true, true>(entries)
                        : callBatchImpl<true, false>(entries);
    }
    return ledgered ? callBatchImpl<false, true>(entries)
                    : callBatchImpl<false, false>(entries);
}

template <bool Traced, bool Ledgered>
std::size_t
Gate::callBatchImpl(std::span<BatchEntry> entries)
{
    cpu::Vcpu &cpu = *cpuPtr;
    const sim::CostModel &cost = cpu.costModel();
    const EptpIndex caller_index = cpu.activeIndex();
    sim::Tracer *tr = Traced ? cpu.tracer() : nullptr;
    const std::uint32_t track = cpu.id();

    sim::ExitLedger *led = nullptr;
    SimNs leg_start = 0;
    if constexpr (Ledgered) {
        led = cpu.ledger();
        resolveLegSlots(*led);
    }
    auto charge_leg = [&](GateLeg leg) {
        const SimNs now = cpu.clock().now();
        led->observe(legSlots[static_cast<unsigned>(leg)],
                     now - leg_start);
        leg_start = now;
    };

    GateSpan<Traced> call_span(tr, TraceName::GateBatch, track,
                               cpu.clock(), entries.size());
    maybeInjectStale();

    if constexpr (Ledgered)
        leg_start = cpu.clock().now();

    // One transition in...
    {
        GateSpan<Traced> s(tr, TraceName::StackSwap, track, cpu.clock());
        cpu.vmfunc(0, attachInfo.gateIndex);
        if constexpr (Ledgered)
            charge_leg(GateLeg::EnterSwitch);
        cpu::GuestView gate_view(cpu, /*charge_time=*/false);
        gate_view.fetchCheck(gateCodeGpa);
        const std::uint64_t spill[2] = {caller_index, entries.size()};
        gate_view.writeBytes(gateStackGpa, spill, sizeof(spill));
        cpu.clock().advance(cost.gateCodeNs);
        if constexpr (Ledgered)
            charge_leg(GateLeg::Prologue);
        cpu.vmfunc(0, attachInfo.subIndex);
        if constexpr (Ledgered)
            charge_leg(GateLeg::SubSwitch);
    }

    const SharedFnTable &table = resolveTable();

    // ...every entry back-to-back under the sub context...
    cpu::GuestView sub_view(cpu);
    {
        GateSpan<Traced> s(tr, TraceName::Payload, track, cpu.clock(),
                           entries.size());
        for (BatchEntry &entry : entries) {
            if (entry.fn >= table.size())
                badFn(entry.fn);
            SubCallCtx ctx{sub_view,
                           objectGpa,
                           attachInfo.objectBytes,
                           exchangeGpa,
                           attachInfo.exchangeBytes,
                           entry.arg0,
                           entry.arg1,
                           entry.arg2};
            entry.ret = table[entry.fn](ctx);
        }
    }

    // ...one transition out.
    if constexpr (Ledgered)
        leg_start = cpu.clock().now();
    {
        GateSpan<Traced> s(tr, TraceName::Return, track, cpu.clock());
        cpu.vmfunc(0, attachInfo.gateIndex);
        if constexpr (Ledgered)
            charge_leg(GateLeg::ReturnSwitch);
        cpu::GuestView gate_view(cpu, /*charge_time=*/false);
        gate_view.fetchCheck(gateCodeGpa);
        std::uint64_t restore[2];
        gate_view.readBytes(gateStackGpa, restore, sizeof(restore));
        cpu.clock().advance(cost.gateCodeNs);
        if constexpr (Ledgered)
            charge_leg(GateLeg::Epilogue);
        cpu.vmfunc(0, static_cast<EptpIndex>(restore[0]));
        if constexpr (Ledgered)
            charge_leg(GateLeg::ExitSwitch);
    }
    cpu.stats().inc(callsId);
    cpu.stats().inc(batchedFnsId, entries.size());
    call_span.setEndArgs(entries.size(), 1);
    return entries.size();
}

void
Gate::writeExchange(std::uint64_t offset, const void *src,
                    std::uint64_t len)
{
    panic_if(!valid(), "exchange write through an invalid gate");
    panic_if(offset + len > attachInfo.exchangeBytes,
             "exchange write out of bounds");
    cpu::GuestView view(*cpuPtr);
    view.writeBytes(attachInfo.exchangeGuestGpa + offset, src, len);
}

void
Gate::readExchange(std::uint64_t offset, void *dst, std::uint64_t len)
{
    panic_if(!valid(), "exchange read through an invalid gate");
    panic_if(offset + len > attachInfo.exchangeBytes,
             "exchange read out of bounds");
    cpu::GuestView view(*cpuPtr);
    view.readBytes(attachInfo.exchangeGuestGpa + offset, dst, len);
}

} // namespace elisa::core
