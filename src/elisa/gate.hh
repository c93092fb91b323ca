/**
 * @file
 * The ELISA gate: the exit-less data path.
 *
 * Gate::call() is the whole point of the paper. One call performs:
 *
 *   VMFUNC(default -> gate)      42 ns   no VM exit
 *   gate prologue                14 ns   isolated-stack switch, spill
 *   VMFUNC(gate -> sub)          42 ns
 *   shared function runs               under the sub EPT context
 *   VMFUNC(sub -> gate)          42 ns
 *   gate epilogue                14 ns   restore
 *   VMFUNC(gate -> default)      42 ns
 *                               ------
 *   round trip                  196 ns   (vs 699 ns for a VMCALL)
 *
 * The trampoline's functional work (fetch check on the shared gate
 * code page, spill/restore on the isolated stack) is performed with a
 * non-charging GuestView: the checks are real, the time is the
 * calibrated gateCodeNs lump.
 */

#ifndef ELISA_ELISA_GATE_HH
#define ELISA_ELISA_GATE_HH

#include <cstdint>
#include <span>

#include "elisa/abi.hh"
#include "elisa/negotiation.hh"
#include "sim/exit_ledger.hh"
#include "sim/stats.hh"

namespace elisa::core
{

/**
 * The six overhead legs of one gate round trip (ExitLedger code values
 * under sim::CostKind::GateLeg). The payload itself is deliberately
 * not a leg: the ledger attributes *mechanism* cost, and the sum of
 * the six legs is exactly the paper's 196 ns round-trip overhead
 * (4 x vmfuncNs + 2 x gateCodeNs).
 */
enum class GateLeg : std::uint8_t
{
    EnterSwitch,  ///< VMFUNC default -> gate
    Prologue,     ///< trampoline fetch check + spill (gateCodeNs)
    SubSwitch,    ///< VMFUNC gate -> sub
    ReturnSwitch, ///< VMFUNC sub -> gate
    Epilogue,     ///< fetch check + restore (gateCodeNs)
    ExitSwitch,   ///< VMFUNC gate -> default
};

/** Number of GateLeg values (slot tables). */
inline constexpr unsigned gateLegCount = 6;

/** Render a gate leg. */
const char *gateLegToString(GateLeg leg);

/**
 * Register the GateLeg display names with @p ledger (idempotent).
 * Gates do this on their first ledgered call; tools building reports
 * from a bare ledger call it directly.
 */
void registerGateLegNames(sim::ExitLedger &ledger);

/**
 * Guest-side handle on one attachment.
 *
 * Move-only RAII: exactly one handle owns an attachment, and dropping
 * the handle detaches it (the slow-path Detach hypercall), so an
 * attachment can no longer leak or be torn down twice through two
 * copies. Detach is idempotent — explicit detach() first, destruction
 * after, and replayed hypercalls are all safe — and tolerant of the
 * manager VM having already died (PR 2's auto-revoke retired the
 * attachment; the host acknowledges the replay). A Gate must not
 * outlive the ElisaService that minted it.
 */
class Gate
{
  public:
    /** Invalid gate. */
    Gate() = default;

    /**
     * @param vcpu the attached vCPU.
     * @param service the host-side registry (function dispatch).
     * @param info the negotiated attachment descriptor.
     */
    Gate(cpu::Vcpu &vcpu, ElisaService &service, const AttachInfo &info);

    Gate(const Gate &) = delete;
    Gate &operator=(const Gate &) = delete;

    /** Moved-from gates are invalid and destruct as no-ops. */
    Gate(Gate &&other) noexcept;

    /** Detaches the currently held attachment (if any) first. */
    Gate &operator=(Gate &&other) noexcept;

    /** Auto-detach; exceptions from the hypercall are swallowed. */
    ~Gate();

    /**
     * Slow-path detach; the handle becomes invalid either way.
     * Idempotent: repeated calls (and the destructor afterwards) are
     * no-ops. When the guest VM is already gone the hypercall is
     * skipped — the hypervisor's destroy hook retired the attachment.
     * Unlike the destructor, an explicit detach() lets injected-fault
     * exceptions (VM exits) propagate to the caller.
     * @return true when the host acknowledged the detach.
     */
    bool detach();

    /** True when this handle refers to a live attachment. */
    bool valid() const { return cpuPtr != nullptr; }

    /** The negotiated descriptor. */
    const AttachInfo &info() const { return attachInfo; }

    /**
     * The exit-less call: switch default->gate->sub, run function
     * @p fn of the export's table with the given register arguments,
     * switch back. Throws cpu::VmExitEvent if the attachment was
     * revoked (stale EPTP-list index) or the function id is out of
     * range (jump to an unmapped sub-context address) — exactly the
     * faults the hardware would deliver.
     */
    std::uint64_t call(unsigned fn, std::uint64_t arg0 = 0,
                       std::uint64_t arg1 = 0, std::uint64_t arg2 = 0);

    /** One invocation within a batched gate call. */
    struct BatchEntry
    {
        unsigned fn = 0;
        std::uint64_t arg0 = 0;
        std::uint64_t arg1 = 0;
        std::uint64_t arg2 = 0;
        std::uint64_t ret = 0; ///< filled in by callBatch
    };

    /**
     * Batched exit-less call: ONE context round trip (the same
     * 4-VMFUNC/2-segment transition as call()) amortized over every
     * entry; the shared functions run back-to-back inside the sub
     * context and their results are written into the entries.
     * Faults behave like call(): the whole batch unwinds.
     * @return number of entries executed (== entries.size()).
     */
    std::size_t callBatch(std::span<BatchEntry> entries);

    /**
     * Copy bulk data into the exchange buffer through the *default*
     * context mapping (what a guest does before a call).
     */
    void writeExchange(std::uint64_t offset, const void *src,
                       std::uint64_t len);

    /** Copy bulk data out of the exchange buffer (after a call). */
    void readExchange(std::uint64_t offset, void *dst,
                      std::uint64_t len);

  private:
    /**
     * The call() body, instantiated per (traced, ledgered) decision.
     * Both decisions are single branches in call(): the plain
     * instantiation contains no span objects and no clock reads at
     * all, because even an inert ScopedSpan needs exception-cleanup
     * landing pads whose member spills cost several ns on the 196 ns
     * gate call — and the ledger's per-leg clock deltas would cost
     * the same again.
     */
    template <bool Traced, bool Ledgered>
    std::uint64_t callImpl(unsigned fn, std::uint64_t arg0,
                           std::uint64_t arg1, std::uint64_t arg2);

    /** The callBatch() body; same single-branch scheme as callImpl. */
    template <bool Traced, bool Ledgered>
    std::size_t callBatchImpl(std::span<BatchEntry> entries);

    /**
     * Resolve (once per ledger instance, serial-guarded) this gate's
     * six GateLeg slots and register the leg display names.
     */
    [[gnu::noinline]] void resolveLegSlots(sim::ExitLedger &ledger);

    /**
     * Resolve the shared-function table, faulting like the MMU would
     * on an out-of-range function id (a jump to an unmapped
     * sub-context address). Shared by call() and callBatch().
     */
    const SharedFnTable &resolveTable() const;

    /** Raise the fetch fault for an out-of-range function id. */
    [[noreturn]] void badFn(unsigned fn) const;

    /**
     * Consult the machine's FaultPlan (if any) before entering the
     * gate; a GateStale decision raises the stale-EPTP VMFUNC fault a
     * concurrent revocation would cause.
     */
    void maybeInjectStale() const;

    /**
     * Lazy grant expiry: when the attachment's grant carries a lapse
     * instant and the vCPU clock has reached it, tear the grant down
     * host-side (EPTP-list entries cleared, TLBs flushed) and raise
     * the stale-EPTP fault this entry VMFUNC now hits. One load and
     * one compare on gates whose grant never expires, so a delegated
     * gate costs exactly what a direct one does.
     */
    void maybeExpire();

    cpu::Vcpu *cpuPtr = nullptr;
    ElisaService *svc = nullptr;
    AttachInfo attachInfo;
    /** Guest VM owning cpuPtr; checked before detaching, so a handle
     *  outliving its (fault-killed) VM never touches a dead vCPU. */
    VmId ownerVm = invalidVmId;
    // Hot-path counters, interned once at construction (per-call code
    // must not do string lookups).
    sim::StatId callsId = 0;
    sim::StatId batchedFnsId = 0;
    sim::StatId badFnId = 0;
    // Ledger leg slots, resolved once per ledger instance
    // (serial-guarded: a successor ledger may reuse the address).
    std::uint64_t ledgerSerial = 0;
    sim::LedgerSlot legSlots[gateLegCount] = {};
};

} // namespace elisa::core

#endif // ELISA_ELISA_GATE_HH
