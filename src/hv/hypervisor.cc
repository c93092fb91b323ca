#include "hv/hypervisor.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/strutil.hh"
#include "sim/metrics.hh"

namespace elisa::hv
{

Hypervisor::Hypervisor(std::uint64_t phys_mem_bytes,
                       const sim::CostModel &cost)
    : costModel(cost), physMem(phys_mem_bytes),
      frames(physMem)
{
    // Intern hot/fault-path counter names once; per-event code indexes
    // by id instead of hashing strings.
    hypercallsId = statSet.id("hypercalls");
    hypercallUnknownId = statSet.id("hypercall_unknown");
    faultInjectedId = statSet.id("fault_injected");
    faultDroppedId = statSet.id("fault_dropped");
    faultDelayedId = statSet.id("fault_delayed");
    faultDuplicatedId = statSet.id("fault_duplicated");
    faultErrorsId = statSet.id("fault_errors");
    faultVmKillsId = statSet.id("fault_vm_kills");
    for (unsigned r = 0; r < cpu::exitReasonCount; ++r) {
        exitIds[r] = statSet.id(
            std::string("exit_") +
            cpu::exitReasonToString(static_cast<cpu::ExitReason>(r)));
    }
    registerBaseHypercalls();
}

Hypervisor::~Hypervisor() = default;

Vm &
Hypervisor::createVm(const std::string &name, std::uint64_t ram_bytes,
                     unsigned vcpu_count)
{
    const VmId id = nextVmId++;
    // Occupancy book entry (reservation size).
    frames.noteOwner(id, ram_bytes / pageSize);
    auto vm = std::make_unique<Vm>(*this, id, name, ram_bytes, vcpu_count);
    Vm &ref = *vm;
    for (unsigned i = 0; i < ref.vcpuCount(); ++i)
        vcpuOwner[ref.vcpu(i).id()] = id;
    vms.emplace(id, std::move(vm));
    statSet.inc("vm_created");
    return ref;
}

Vm &
Hypervisor::vm(VmId id)
{
    auto it = vms.find(id);
    panic_if(it == vms.end(), "no VM with id %u", id);
    return *it->second;
}

void
Hypervisor::destroyVm(VmId id)
{
    auto it = vms.find(id);
    panic_if(it == vms.end(), "destroying unknown VM %u", id);
    if (recorderPtr != nullptr) {
        // Drain the dying VM's final spans into its ring, then freeze
        // the post-mortem before teardown hooks mutate the world. The
        // death instant is the furthest-advanced vCPU clock of the VM.
        if (tracerPtr)
            recorderPtr->observe(*tracerPtr);
        Vm &dying = *it->second;
        SimNs death = 0;
        for (unsigned i = 0; i < dying.vcpuCount(); ++i)
            death = std::max(death, dying.vcpu(i).clock().now());
        recorderPtr->dump(id, death, ledgerPtr);
    }
    for (auto &hook : destroyHooks)
        hook(id);
    if (metricsPtr != nullptr) {
        // The registry holds non-owning StatSet pointers: detach the
        // dying vCPUs' sets or the next collect() walks freed memory.
        Vm &dying = *it->second;
        for (unsigned i = 0; i < dying.vcpuCount(); ++i)
            metricsPtr->detachStatSet(dying.vcpu(i).stats());
    }
    vms.erase(it);
    frames.dropOwner(id);
    statSet.inc("vm_destroyed");
}

void
Hypervisor::addVmDestroyHook(VmDestroyHook hook)
{
    panic_if(!hook, "registering empty destroy hook");
    destroyHooks.push_back(std::move(hook));
}

void
Hypervisor::registerHypercall(std::uint64_t nr, HypercallHandler handler)
{
    panic_if(!handler, "registering empty hypercall handler");
    hypercalls[nr] = std::move(handler);
}

void
Hypervisor::setTracer(sim::Tracer *tracer)
{
    tracerPtr = tracer;
    hcNameIds.clear();
    for (auto &[id, vm] : vms) {
        for (unsigned i = 0; i < vm->vcpuCount(); ++i)
            vm->vcpu(i).setTracer(tracer);
    }
}

void
Hypervisor::setLedger(sim::ExitLedger *ledger)
{
    ledgerPtr = ledger;
    if (ledgerPtr) {
        for (unsigned r = 0; r < cpu::exitReasonCount; ++r) {
            ledgerPtr->setCodeName(
                sim::CostKind::Exit, r,
                cpu::exitReasonToString(static_cast<cpu::ExitReason>(r)));
        }
        for (const auto &[nr, name] : hcNames) {
            ledgerPtr->setCodeName(sim::CostKind::Hypercall,
                                   static_cast<std::uint32_t>(nr), name);
        }
        ledgerPtr->setCodeName(
            sim::CostKind::Page,
            static_cast<std::uint32_t>(sim::PageCost::PageIn),
            "page_in");
        ledgerPtr->setCodeName(
            sim::CostKind::Page,
            static_cast<std::uint32_t>(sim::PageCost::PageOut),
            "page_out");
        ledgerPtr->setCodeName(
            sim::CostKind::Page,
            static_cast<std::uint32_t>(sim::PageCost::ZeroFill),
            "zero_fill");
    }
    for (auto &[id, vm] : vms) {
        for (unsigned i = 0; i < vm->vcpuCount(); ++i)
            vm->vcpu(i).setLedger(ledger);
    }
}

void
Hypervisor::setFlightRecorder(sim::FlightRecorder *recorder)
{
    recorderPtr = recorder;
    if (recorderPtr == nullptr)
        return;
    recorderPtr->setTrackResolver([this](std::uint32_t track) {
        const auto it = vcpuOwner.find(track);
        return it == vcpuOwner.end() ? sim::FlightRecorder::noVm
                                     : it->second;
    });
    if (ledgerPtr)
        recorderPtr->baseline(*ledgerPtr);
}

void
Hypervisor::attachMetrics(sim::Metrics &metrics)
{
    metricsPtr = &metrics;
    metrics.attachStatSet(statSet, {{"layer", "hv"}}, "hv_");
    for (auto &[id, vm] : vms) {
        for (unsigned i = 0; i < vm->vcpuCount(); ++i) {
            cpu::Vcpu &vcpu = vm->vcpu(i);
            metrics.attachStatSet(
                vcpu.stats(),
                {{"vm", detail::format("%u", id)},
                 {"vcpu", detail::format("%u", vcpu.id())}},
                "vcpu_");
        }
    }
}

void
Hypervisor::setHypercallName(std::uint64_t nr, std::string name)
{
    if (ledgerPtr) {
        ledgerPtr->setCodeName(sim::CostKind::Hypercall,
                               static_cast<std::uint32_t>(nr), name);
    }
    hcNames[nr] = std::move(name);
    hcNameIds.erase(nr);
}

sim::TraceName
Hypervisor::hcSpanName(std::uint64_t nr)
{
    auto it = hcNameIds.find(nr);
    if (it != hcNameIds.end())
        return it->second;
    auto named = hcNames.find(nr);
    const sim::TraceName id =
        named != hcNames.end()
            ? tracerPtr->intern(named->second)
            : tracerPtr->intern(
                  detail::format("hc_0x%llx", (unsigned long long)nr));
    hcNameIds.emplace(nr, id);
    return id;
}

Pager &
Hypervisor::enablePaging(const PagingConfig &config)
{
    panic_if(pagerPtr != nullptr, "paging already enabled");
    pagerPtr = std::make_unique<Pager>(*this, config);
    addVmDestroyHook([this](VmId id) { pagerPtr->onVmDestroy(id); });
    statSet.inc("paging_enabled");
    return *pagerPtr;
}

bool
Hypervisor::resolveEptViolation(cpu::Vcpu &vcpu,
                                const ept::EptViolation &violation)
{
    return pagerPtr != nullptr && pagerPtr->resolve(vcpu, violation);
}

unsigned
Hypervisor::reapKilledVms(VmId except)
{
    unsigned reaped = 0;
    std::vector<VmId> deferred;
    while (!doomedVms.empty()) {
        const VmId victim = doomedVms.back();
        doomedVms.pop_back();
        if (victim == except) {
            deferred.push_back(victim);
            continue;
        }
        if (!vms.contains(victim))
            continue;
        destroyVm(victim);
        ++reaped;
    }
    doomedVms = std::move(deferred);
    return reaped;
}

std::uint64_t
Hypervisor::handleHypercall(cpu::Vcpu &vcpu,
                            const cpu::HypercallArgs &args)
{
    statSet.inc(hypercallsId);

    // One span per hypercall, named after the call, closed even when
    // an injected KillVm unwinds this frame with a VmExitEvent.
    sim::ScopedSpan span(tracerPtr, sim::SpanCat::Hypercall,
                         tracerPtr ? hcSpanName(args.nr)
                                   : sim::TraceName::Unknown,
                         vcpu.id(), vcpu.clock(), args.nr, args.arg0);

    if (faults != nullptr) {
        // Tear down VMs whose injected death was deferred out of their
        // own hypercall frames; the caller's own VM (whose vCPU is on
        // the stack right now) is never touched here.
        if (!doomedVms.empty())
            reapKilledVms(vcpu.vm());

        const sim::FaultDecision fault =
            faults->onHypercall(vcpu.vm(), args.nr);
        switch (fault.action) {
          case sim::FaultAction::None:
            break;
          case sim::FaultAction::Drop:
            // The request never reaches a handler; the caller sees
            // the same error a lost message would produce.
            statSet.inc(faultInjectedId);
            statSet.inc(faultDroppedId);
            if (tracerPtr) {
                tracerPtr->instant(sim::SpanCat::Fault,
                                   sim::TraceName::FaultDrop, vcpu.id(),
                                   vcpu.clock().now(), args.nr);
            }
            span.setEndArgs(hcError, 1);
            return hcError;
          case sim::FaultAction::Error:
            // The handler fails outright.
            statSet.inc(faultInjectedId);
            statSet.inc(faultErrorsId);
            if (tracerPtr) {
                tracerPtr->instant(sim::SpanCat::Fault,
                                   sim::TraceName::FaultError, vcpu.id(),
                                   vcpu.clock().now(), args.nr);
            }
            span.setEndArgs(hcError, 1);
            return hcError;
          case sim::FaultAction::Delay:
            // Host-side stall (contention, scheduling) before the
            // handler runs; charged to the caller.
            statSet.inc(faultInjectedId);
            statSet.inc(faultDelayedId);
            vcpu.clock().advance(fault.param);
            if (tracerPtr) {
                tracerPtr->instant(sim::SpanCat::Fault,
                                   sim::TraceName::FaultDelay, vcpu.id(),
                                   vcpu.clock().now(), args.nr, fault.param);
            }
            break;
          case sim::FaultAction::Duplicate: {
            // The message is replayed: the handler runs twice and the
            // caller observes the *second* outcome — exactly the case
            // idempotent Detach/Revoke must survive.
            statSet.inc(faultInjectedId);
            statSet.inc(faultDuplicatedId);
            if (tracerPtr) {
                tracerPtr->instant(sim::SpanCat::Fault,
                                   sim::TraceName::FaultDuplicate, vcpu.id(),
                                   vcpu.clock().now(), args.nr);
            }
            auto dup = hypercalls.find(args.nr);
            if (dup == hypercalls.end()) {
                statSet.inc(hypercallUnknownId);
                span.setEndArgs(hcError, 1);
                return hcError;
            }
            dup->second(vcpu, args);
            const std::uint64_t rc = dup->second(vcpu, args);
            span.setEndArgs(rc, 1);
            return rc;
          }
          case sim::FaultAction::KillVm: {
            statSet.inc(faultInjectedId);
            statSet.inc(faultVmKillsId);
            const VmId victim = static_cast<VmId>(fault.param);
            if (tracerPtr) {
                tracerPtr->instant(sim::SpanCat::Fault,
                                   sim::TraceName::FaultKillVm, vcpu.id(),
                                   vcpu.clock().now(), args.nr, victim);
            }
            if (recorderPtr)
                recorderPtr->noteKill(victim, "fault_kill@hypercall");
            if (victim == vcpu.vm()) {
                // The caller dies mid-hypercall. Its frames (this
                // dispatch, the vmcall below it) still reference the
                // vCPU, so defer the actual teardown and unwind with
                // the exit the hardware would deliver.
                doomedVms.push_back(victim);
                throw cpu::VmExitEvent(cpu::ExitReason::VmKilled,
                                       victim);
            }
            // A third party (e.g. the manager serving this caller)
            // dies right now; the handler then runs against a world
            // where the peer is gone.
            if (vms.contains(victim))
                destroyVm(victim);
            break;
          }
          default:
            // Site-specific actions (GateStale, Shm*) are no-ops at
            // the dispatcher.
            break;
        }
    }

    auto it = hypercalls.find(args.nr);
    if (it == hypercalls.end()) {
        statSet.inc(hypercallUnknownId);
        span.setEndArgs(hcError);
        return hcError;
    }
    const std::uint64_t rc = it->second(vcpu, args);
    span.setEndArgs(rc);
    return rc;
}

std::optional<EptpIndex>
Hypervisor::installEptp(cpu::Vcpu &vcpu, std::uint64_t eptp)
{
    auto index = vcpu.eptpList().findFree();
    if (!index)
        return std::nullopt;
    vcpu.eptpList().set(*index, eptp);
    statSet.inc("eptp_installed");
    return index;
}

void
Hypervisor::removeEptp(cpu::Vcpu &vcpu, EptpIndex index)
{
    panic_if(index == 0, "refusing to remove the default EPTP");
    auto eptp = vcpu.eptpList().lookup(index);
    if (!eptp)
        return;
    vcpu.eptpList().clear(index);
    vcpu.tlb().flushEptp(*eptp);
    statSet.inc("eptp_removed");
}

void
Hypervisor::inveptAll(std::uint64_t eptp)
{
    for (auto &[id, vm] : vms) {
        for (unsigned i = 0; i < vm->vcpuCount(); ++i)
            vm->vcpu(i).tlb().flushEptp(eptp);
    }
}

void
Hypervisor::inveptGlobal()
{
    for (auto &[id, vm] : vms) {
        for (unsigned i = 0; i < vm->vcpuCount(); ++i)
            vm->vcpu(i).tlb().flushAll();
    }
}

void
Hypervisor::registerBaseHypercalls()
{
    setHypercallName(Hc::Nop, "hc_nop");
    setHypercallName(Hc::GetVmId, "hc_get_vm_id");

    registerHypercall(Hc::Nop,
                      [](cpu::Vcpu &, const cpu::HypercallArgs &) {
                          return std::uint64_t{0};
                      });

    registerHypercall(Hc::GetVmId,
                      [](cpu::Vcpu &vcpu, const cpu::HypercallArgs &) {
                          return std::uint64_t{vcpu.vm()};
                      });
}

} // namespace elisa::hv
