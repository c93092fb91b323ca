/**
 * @file
 * Per-VM flight recorder: a bounded ring of each VM's most recent
 * trace events plus ledger-delta accounting, dumped as a deterministic
 * post-mortem JSON when the VM dies.
 *
 * The tracer's ring is machine-global — by the time a VM killed by the
 * fault battery is torn down, its last spans may already be overwritten
 * by survivor traffic. The recorder demultiplexes the global stream
 * into small per-VM rings (track → vm via a resolver the hypervisor
 * installs), so every VM keeps its own last-N window regardless of how
 * chatty its neighbours are. On kill/teardown the hypervisor drains
 * the tracer one final time and dumps: the VM's span window, its
 * ledger rows as deltas since the recorder's baseline, per-kind
 * totals, and a conservation verdict (row deltas non-negative and
 * partitioning the VM's total) — the same double-entry invariant the
 * chaos tests enforce, now checked at every death.
 *
 * Everything is simulated-time data; dumps are byte-deterministic for
 * a given machine history.
 */

#ifndef ELISA_SIM_FLIGHT_RECORDER_HH
#define ELISA_SIM_FLIGHT_RECORDER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "base/types.hh"
#include "sim/exit_ledger.hh"
#include "sim/tracer.hh"

namespace elisa::sim
{

class FlightRecorder
{
  public:
    /** Resolver verdict for "this track belongs to no VM". */
    static constexpr std::uint32_t noVm = 0xffffffffu;

    /** @param per_vm_capacity ring size (events) kept per VM. */
    explicit FlightRecorder(std::size_t per_vm_capacity = 256);

    /**
     * Install the track → vm resolver (by convention tracks are vCPU
     * ids; the hypervisor knows which VM each belongs to). Events
     * whose track resolves to noVm are counted unattributed.
     */
    void setTrackResolver(
        std::function<std::uint32_t(std::uint32_t)> resolver);

    /**
     * Drain events emitted since the last observe() from @p tracer
     * into the per-VM rings. Call at publication boundaries and —
     * crucially — right before dumping a dying VM.
     */
    void observe(const Tracer &tracer);

    /**
     * Capture the ledger baseline deltas are measured from. Typically
     * called once at install time (an all-zero ledger) — but a test
     * can re-baseline mid-run to scope a dump to one phase.
     */
    void baseline(const ExitLedger &ledger);

    /** Annotate the next dump of @p vm with a kill site/cause. */
    void noteKill(std::uint32_t vm, std::string site);

    /**
     * Build (and retain) the post-mortem JSON for @p vm at simulated
     * time @p now. @p ledger may be null (spans only). The reason is
     * the pending noteKill() annotation when one exists, else
     * "vm_destroy". Returns the JSON document.
     */
    const std::string &dump(std::uint32_t vm, SimNs now,
                            const ExitLedger *ledger);

    // ---- post-mortem access ----------------------------------------
    bool hasPostMortem(std::uint32_t vm) const;
    const std::string &postMortem(std::uint32_t vm) const;

    /** VMs with a retained post-mortem, ascending. */
    std::vector<std::uint32_t> postMortemVms() const;

    /** Conservation verdict of the last dump of @p vm. */
    bool postMortemConserved(std::uint32_t vm) const;

    // ---- introspection (tests) -------------------------------------
    /** Events currently held for @p vm. */
    std::size_t heldFor(std::uint32_t vm) const;

    /** Events of @p vm overwritten by ring wraparound. */
    std::uint64_t droppedFor(std::uint32_t vm) const;

    /** Events whose track resolved to no VM. */
    std::uint64_t unattributed() const { return unresolved; }

    /** Events lost because observe() lagged the tracer ring. */
    std::uint64_t missed() const { return missedEvents; }

  private:
    struct VmRing
    {
        std::vector<TraceEvent> ring;
        std::size_t head = 0;
        std::size_t held = 0;
        std::uint64_t total = 0;
    };

    struct PostMortem
    {
        std::string json;
        bool conserved = true;
    };

    /** Ledger row identity for the baseline map. */
    using RowKey =
        std::tuple<std::uint32_t, std::uint32_t, std::uint8_t,
                   std::uint32_t>; ///< (vm, vcpu, kind, code)

    VmRing &ringFor(std::uint32_t vm);
    void push(VmRing &ring, const TraceEvent &event);

    std::size_t capacity;
    std::function<std::uint32_t(std::uint32_t)> trackResolver;
    std::map<std::uint32_t, VmRing> rings;
    std::uint64_t cursor = 0;      ///< tracer emitted() high-water
    std::uint64_t tracerSerial = 0;
    std::uint64_t unresolved = 0;
    std::uint64_t missedEvents = 0;
    std::map<TraceName, std::string> nameTable;
    std::map<RowKey, std::pair<std::uint64_t, std::uint64_t>>
        ledgerBaseline; ///< (events, ns) at baseline time
    std::map<std::uint32_t, std::string> killReasons;
    std::map<std::uint32_t, PostMortem> postMortems;
};

} // namespace elisa::sim

#endif // ELISA_SIM_FLIGHT_RECORDER_HH
