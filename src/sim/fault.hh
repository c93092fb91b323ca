/**
 * @file
 * Deterministic fault injection for the simulated machine.
 *
 * A FaultPlan is a scripted + seeded description of everything that is
 * allowed to go wrong in one run: hypercalls can be dropped, delayed,
 * duplicated, or failed; a VM (guest or manager) can be killed at any
 * protocol step; gate calls can hit a stale EPTP-list entry;
 * attachment builds, capability registrations and swap-device page-ins
 * can fail.
 *
 * Two sources of decisions, both bit-reproducible:
 *
 *  - rules: "on the Nth occurrence of hypercall X from VM Y, do Z" —
 *    exact, counted matching for protocol-step kill matrices;
 *  - chances: per-site probabilities drawn from a seeded sim::Rng —
 *    chaos testing that replays identically from the seed.
 *
 * The plan keeps an append-only event log of every injected fault, so
 * a failing run's fault schedule can be printed and replayed exactly.
 * Layering: this file knows nothing about vCPUs or the hypervisor —
 * hooks receive plain ids and the *caller* applies the decision — so
 * the subsystem sits at the bottom of the tree next to Rng and Clock.
 *
 * Cost discipline: an *absent* plan (the default) is one null-pointer
 * test on each hooked path, and a zero-fault plan draws no random
 * numbers and perturbs no clock — disabled fault hooks are free.
 */

#ifndef ELISA_SIM_FAULT_HH
#define ELISA_SIM_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "sim/rng.hh"

namespace elisa::sim
{

/** What an injected fault does to the hooked operation. */
enum class FaultAction : std::uint8_t
{
    /** No fault: proceed normally. */
    None,
    /** The message never arrives; the caller sees a failure. */
    Drop,
    /** The operation completes after an extra param nanoseconds. */
    Delay,
    /** The message is replayed: the operation runs twice. */
    Duplicate,
    /** The handler fails: the caller sees an error return. */
    Error,
    /** VM param dies at this point (guest or manager). */
    KillVm,
    /** A gate call finds its EPTP-list entry cleared (revoked). */
    GateStale,
    /** An attachment build runs out of frames or EPT tables. */
    ShmExhaust,
    /** A capability registration finds the grant table exhausted. */
    GrantExhaust,
};

/** Render a fault action (event log / debugging). */
const char *faultActionToString(FaultAction action);

/**
 * Hook sites that consult the plan. A rule only fires at sites where
 * its action is meaningful (a GateStale rule never matches a hypercall
 * dispatch, a Drop rule never matches an attachment build), so
 * wildcard rules cannot be consumed by the wrong subsystem.
 */
enum class FaultSite : std::uint8_t
{
    Hypercall,
    Gate,
    AttachBuild,
    /** Grant-table registration inside a Delegate/Redeem step. */
    Capability,
    /** The pager is about to read a page from the swap device. */
    PageIn,
};

/** Wildcard for FaultRule match fields. */
inline constexpr std::uint64_t faultAny = ~std::uint64_t{0};

/**
 * One scripted fault: fires when a hook event matches every non-
 * wildcard field and the per-rule match counter reaches occurrence.
 */
struct FaultRule
{
    /**
     * Match: restrict to one hook site (a FaultSite value), or
     * faultAny to let siteAccepts() alone decide where the action is
     * meaningful. Actions meaningful at several sites (Error, Delay,
     * KillVm span Hypercall and PageIn) should pin the site.
     */
    std::uint64_t site = faultAny;

    /** Match: hypercall number (hypercall hook), or faultAny. */
    std::uint64_t hcNr = faultAny;

    /** Match: acting VM id, or faultAny. */
    std::uint64_t vm = faultAny;

    /** Fire on the Nth matching event (1-based). */
    std::uint64_t occurrence = 1;

    /** Keep firing on every match at or beyond occurrence. */
    bool repeat = false;

    FaultAction action = FaultAction::None;

    /** Action parameter: delay ns (Delay) or victim VM id (KillVm). */
    std::uint64_t param = 0;
};

/** Outcome of consulting the plan at one hook site. */
struct FaultDecision
{
    FaultAction action = FaultAction::None;
    std::uint64_t param = 0;
};

/**
 * The per-run fault schedule. Install on a Hypervisor (hypercall, gate,
 * negotiation and pager hooks); ownership stays with the caller.
 */
class FaultPlan
{
  public:
    /** @param seed drives every probabilistic decision. */
    explicit FaultPlan(std::uint64_t seed = 0) : rng(seed) {}

    /** Append a scripted rule (evaluated in insertion order). */
    void addRule(const FaultRule &rule);

    /** Convenience: kill @p victim on the Nth call of @p hc_nr. */
    void killVmAt(std::uint64_t hc_nr, std::uint64_t victim,
                  std::uint64_t occurrence = 1);

    /**
     * Convenience: the Nth page-in for @p vm fails with a swap-device
     * I/O error — the fault stays unresolved and the guest observes
     * the EPT-violation exit. The page is not lost; a later fault
     * (without a matching rule) pages it in normally.
     */
    void failPageInAt(std::uint64_t vm, std::uint64_t occurrence = 1);

    /** Convenience: @p victim dies during its Nth page-in. */
    void killDuringPageIn(std::uint64_t victim,
                          std::uint64_t occurrence = 1);

    // ---- chaos knobs (all default off) ----------------------------
    /** Probability that any hypercall is dropped. */
    void setDropChance(double p) { dropChance = p; }

    /** Probability (and mean ns) of a random hypercall delay. */
    void
    setDelayChance(double p, SimNs mean_ns)
    {
        delayChance = p;
        delayMeanNs = mean_ns;
    }

    /** Probability that any hypercall is duplicated (replayed). */
    void setDuplicateChance(double p) { duplicateChance = p; }

    /** Probability (and mean ns) of a slow swap-device page-in. */
    void
    setPageInDelayChance(double p, SimNs mean_ns)
    {
        pageInDelayChance = p;
        pageInDelayMeanNs = mean_ns;
    }

    /** Probability that any page-in fails with an I/O error. */
    void setPageInErrorChance(double p) { pageInErrorChance = p; }

    // ---- hook sites (called by the instrumented subsystems) --------
    /** A VM issued hypercall @p nr. */
    FaultDecision onHypercall(std::uint64_t vm, std::uint64_t nr);

    /** A vCPU of VM @p vm is entering the exit-less gate path. */
    FaultDecision onGateCall(std::uint64_t vm);

    /** The negotiation is about to build an attachment for @p vm. */
    FaultDecision onAttachBuild(std::uint64_t vm);

    /** VM @p vm is registering a capability grant (delegate/redeem). */
    FaultDecision onCapability(std::uint64_t vm);

    /** The pager is about to page in a frame faulted by VM @p vm. */
    FaultDecision onPageIn(std::uint64_t vm);

    // ---- observability --------------------------------------------
    /** Every injected fault, one line each, in injection order. */
    const std::string &eventLog() const { return log; }

    /** Total faults injected so far. */
    std::uint64_t injectedCount() const { return injected; }

  private:
    struct CountedRule
    {
        FaultRule rule;
        std::uint64_t matches = 0;
        bool spent = false;
    };

    /**
     * First firing rule wins; chance draws only run when the matching
     * site has a non-zero probability configured (so a rules-only or
     * empty plan consumes no randomness at all).
     */
    FaultDecision decide(FaultSite site, std::uint64_t vm,
                         std::uint64_t nr, bool allow_chance);

    void record(FaultSite site, std::uint64_t vm, std::uint64_t nr,
                const FaultDecision &decision);

    Rng rng;
    std::vector<CountedRule> rules;
    double dropChance = 0.0;
    double delayChance = 0.0;
    SimNs delayMeanNs = 0;
    double duplicateChance = 0.0;
    double pageInDelayChance = 0.0;
    SimNs pageInDelayMeanNs = 0;
    double pageInErrorChance = 0.0;
    std::uint64_t injected = 0;
    std::string log;
};

} // namespace elisa::sim

#endif // ELISA_SIM_FAULT_HH
