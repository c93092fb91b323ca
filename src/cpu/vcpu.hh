/**
 * @file
 * The simulated VT-x virtual CPU.
 *
 * A Vcpu bundles what the VMCS + core state would provide on hardware:
 * the hypercall-ABI registers (modelled as the structured
 * HypercallArgs), the EPTP list, the currently active EPTP, a
 * translation cache, and a simulated clock.
 * The two paper-relevant instructions are implemented here:
 *
 *  - vmcall(): a full VM exit into the hypervisor and back
 *    (vmexit + dispatch + handler + vmentry nanoseconds);
 *  - vmfunc(0, idx): an EPTP switch *without* leaving guest context
 *    (vmfuncNs), faulting into a VM exit on any invalid use.
 */

#ifndef ELISA_CPU_VCPU_HH
#define ELISA_CPU_VCPU_HH

#include <cstdint>
#include <map>
#include <memory>

#include "base/types.hh"
#include "ept/ept.hh"
#include "ept/eptp_list.hh"
#include "ept/tlb.hh"
#include "mem/frame_allocator.hh"
#include "mem/host_memory.hh"
#include "sim/clock.hh"
#include "sim/cost_model.hh"
#include "sim/exit_ledger.hh"
#include "sim/stats.hh"
#include "sim/tracer.hh"

namespace elisa::cpu
{

/** Hypercall request registers (VMCALL ABI: rax = number, rdi.. args). */
struct HypercallArgs
{
    std::uint64_t nr = 0;
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
    std::uint64_t arg2 = 0;
    std::uint64_t arg3 = 0;
};

class Vcpu;

/**
 * Interned StatIds of the per-vCPU hot-path counters, resolved once at
 * Vcpu construction so per-access/per-call code never performs a
 * string lookup (see sim::StatSet).
 */
struct HotStatIds
{
    sim::StatId vmfunc;
    sim::StatId vmfuncFail;
    sim::StatId vmcall;
    sim::StatId cpuid;
    sim::StatId eptWalk;
    sim::StatId eptAdUpdate;
    sim::StatId eptViolation;
    sim::StatId l0Hit;
};

/**
 * Interface the hypervisor implements to receive VMCALL exits.
 */
class HypercallSink
{
  public:
    virtual ~HypercallSink() = default;

    /**
     * Handle a hypercall from @p vcpu. Runs in "host context": the
     * handler may advance the vcpu clock to account for host work.
     * @return the value placed in guest rax.
     */
    virtual std::uint64_t handleHypercall(Vcpu &vcpu,
                                          const HypercallArgs &args) = 0;
};

/**
 * Interface the hypervisor implements to resolve EPT violations
 * before they become guest-visible exits (the demand-paging path).
 */
class EptFaultSink
{
  public:
    virtual ~EptFaultSink() = default;

    /**
     * Try to resolve the EPT violation @p violation raised by @p vcpu
     * under its active EPTP. Runs in "host context": the handler
     * charges the vcpu clock for the exit, the fault service (swap
     * I/O, zero fill, any eviction) and the re-entry. On true the CPU
     * re-executes the faulting access (VMRESUME semantics: the walk
     * runs again and must now succeed or fault afresh); on false the
     * violation propagates as a VmExitEvent. May throw VmExitEvent
     * itself (e.g. the faulting VM is killed mid-page-in).
     */
    virtual bool resolveEptViolation(Vcpu &vcpu,
                                     const ept::EptViolation &violation)
        = 0;
};

/**
 * One simulated virtual CPU.
 */
class Vcpu
{
  public:
    /**
     * @param id global vcpu id.
     * @param owner id of the VM this vcpu belongs to.
     * @param memory machine physical memory.
     * @param allocator machine frame allocator (EPTP-list page).
     * @param cost machine cost model.
     * @param sink hypercall receiver (the hypervisor).
     */
    Vcpu(VcpuId id, VmId owner, mem::HostMemory &memory,
         mem::FrameAllocator &allocator, const sim::CostModel &cost,
         HypercallSink *sink);

    Vcpu(const Vcpu &) = delete;
    Vcpu &operator=(const Vcpu &) = delete;

    /** Global id of this vcpu. */
    VcpuId id() const { return vcpuId; }

    /** Owning VM. */
    VmId vm() const { return ownerVm; }

    /** This vcpu's simulated clock. */
    sim::SimClock &clock() { return simClock; }
    const sim::SimClock &clock() const { return simClock; }

    /** The per-vcpu EPTP list (hypervisor writes it). */
    ept::EptpList &eptpList() { return *list; }
    const ept::EptpList &eptpList() const { return *list; }

    /** The translation cache. */
    ept::Tlb &tlb() { return translationCache; }

    /** Per-vcpu event counters. */
    sim::StatSet &stats() { return statSet; }

    /** Pre-resolved StatIds for this vcpu's hot-path counters. */
    const HotStatIds &statIds() const { return hotIds; }

    /** Currently active EPTP value (0 before activation). */
    std::uint64_t activeEptp() const { return currentEptp; }

    /** Index of the active EPTP within the list. */
    EptpIndex activeIndex() const { return currentIndex; }

    /**
     * Hypervisor-side: force the active context to list entry @p index
     * (used at VM launch and after handled exits). No cost is charged.
     */
    void activateEptp(EptpIndex index);

    /**
     * Guest instruction VMFUNC(leaf=@p leaf, rcx=@p index).
     * Switches the active EPT context without a VM exit when leaf==0
     * and the list entry is valid. Otherwise throws VmExitEvent
     * (VmfuncFail), exactly like the hardware would exit.
     */
    void vmfunc(std::uint64_t leaf, EptpIndex index);

    /**
     * Guest instruction VMCALL: exits to the hypervisor, dispatches the
     * hypercall, re-enters. Returns the handler's rax.
     */
    std::uint64_t vmcall(const HypercallArgs &args);

    /**
     * Guest instruction CPUID: unconditional exit + canned response.
     * Models the classic "cheapest forced exit" microbenchmark.
     */
    std::uint64_t cpuid(std::uint64_t leaf);

    /** Machine memory (for GuestView). */
    mem::HostMemory &memory() { return mem; }

    /** Machine cost model. */
    const sim::CostModel &costModel() const { return cost; }

    /**
     * Install (or with nullptr remove) the machine's trace collector.
     * Non-owning; the hypervisor propagates this to every vCPU. With
     * no tracer installed every trace point is one pointer test.
     */
    void setTracer(sim::Tracer *tracer) { tracerPtr = tracer; }

    /** The installed tracer, or nullptr (instrumented callers). */
    sim::Tracer *tracer() const { return tracerPtr; }

    /**
     * Install (or with nullptr remove) the machine's exit-cost ledger
     * (same contract as setTracer: non-owning, propagated by the
     * hypervisor, one pointer test per charge point when absent).
     * World-switch ns charged here: VMCALL round trips keyed by
     * hypercall number, CPUID forced exits; faulting exits are charged
     * by the VM runner that catches them.
     */
    void setLedger(sim::ExitLedger *ledger);

    /** The installed ledger, or nullptr (instrumented callers). */
    sim::ExitLedger *ledger() const { return ledgerPtr; }

    /**
     * Install (or with nullptr remove) the machine's EPT-fault
     * resolver (the hypervisor's pager entry point). Non-owning, set
     * by hv::Vm at vCPU creation; consulted only on the translation
     * violation path, so an absent sink costs nothing on the hot path
     * and one pointer test per violation.
     */
    void setFaultSink(EptFaultSink *sink) { faultSinkPtr = sink; }

    /** The installed fault resolver, or nullptr. */
    EptFaultSink *faultSink() const { return faultSinkPtr; }

    /**
     * Charge @p ns to this vcpu's {Hypercall, @p nr} ledger row
     * (requires an installed ledger). Out of line: per-nr slot lookup
     * stays off the no-ledger hot path.
     */
    [[gnu::noinline]] void chargeHypercall(std::uint64_t nr, SimNs ns);

  private:
    /**
     * Out-of-line vmfunc trace emission: keeps the ring push out of
     * the vmfunc hot path, which runs 4x per gate call and must stay
     * a single pointer test when no tracer is installed.
     */
    [[gnu::noinline]] void traceVmfunc(std::uint64_t leaf,
                                       EptpIndex index);

    /** Out-of-line CPUID exit charge (same rationale). */
    [[gnu::noinline]] void chargeCpuid(SimNs ns);

    VcpuId vcpuId;
    VmId ownerVm;
    mem::HostMemory &mem;
    const sim::CostModel &cost;
    HypercallSink *hypercallSink;
    std::unique_ptr<ept::EptpList> list;
    ept::Tlb translationCache;
    sim::SimClock simClock;
    sim::StatSet statSet;
    HotStatIds hotIds{};
    std::uint64_t currentEptp = 0;
    EptpIndex currentIndex = 0;

    /** Machine tracer (nullptr = tracing off). */
    sim::Tracer *tracerPtr = nullptr;

    /** EPT-fault resolver (nullptr = no paging). */
    EptFaultSink *faultSinkPtr = nullptr;

    /** Machine exit ledger (nullptr = accounting off). */
    sim::ExitLedger *ledgerPtr = nullptr;
    // Ledger slots, resolved once per (ledger, code) at first charge.
    sim::LedgerSlot cpuidSlot = 0;
    std::map<std::uint64_t, sim::LedgerSlot> hypercallSlots;
};

} // namespace elisa::cpu

#endif // ELISA_CPU_VCPU_HH
