#include "sim/fault.hh"

#include "base/logging.hh"

namespace elisa::sim
{

const char *
faultActionToString(FaultAction action)
{
    switch (action) {
      case FaultAction::None:
        return "none";
      case FaultAction::Drop:
        return "drop";
      case FaultAction::Delay:
        return "delay";
      case FaultAction::Duplicate:
        return "duplicate";
      case FaultAction::Error:
        return "error";
      case FaultAction::KillVm:
        return "kill_vm";
      case FaultAction::GateStale:
        return "gate_stale";
      case FaultAction::ShmExhaust:
        return "shm_exhaust";
      case FaultAction::GrantExhaust:
        return "grant_exhaust";
    }
    return "?";
}

namespace
{

const char *
siteToString(FaultSite site)
{
    switch (site) {
      case FaultSite::Hypercall:
        return "hc";
      case FaultSite::Gate:
        return "gate";
      case FaultSite::AttachBuild:
        return "attach_build";
      case FaultSite::Capability:
        return "capability";
      case FaultSite::PageIn:
        return "page_in";
    }
    return "?";
}

/** Which actions are meaningful at which hook site. */
bool
siteAccepts(FaultSite site, FaultAction action)
{
    switch (action) {
      case FaultAction::Drop:
      case FaultAction::Duplicate:
        return site == FaultSite::Hypercall;
      case FaultAction::Delay:
      case FaultAction::KillVm:
        return site == FaultSite::Hypercall ||
               site == FaultSite::PageIn;
      case FaultAction::Error:
        return site == FaultSite::Hypercall ||
               site == FaultSite::AttachBuild ||
               site == FaultSite::PageIn;
      case FaultAction::GateStale:
        return site == FaultSite::Gate;
      case FaultAction::ShmExhaust:
        return site == FaultSite::AttachBuild;
      case FaultAction::GrantExhaust:
        return site == FaultSite::Capability;
      case FaultAction::None:
        break;
    }
    return false;
}

} // anonymous namespace

void
FaultPlan::addRule(const FaultRule &rule)
{
    panic_if(rule.action == FaultAction::None,
             "fault rule without an action");
    panic_if(rule.occurrence == 0, "fault rule occurrence is 1-based");
    rules.push_back(CountedRule{rule, 0, false});
}

void
FaultPlan::killVmAt(std::uint64_t hc_nr, std::uint64_t victim,
                    std::uint64_t occurrence)
{
    FaultRule rule;
    rule.hcNr = hc_nr;
    rule.occurrence = occurrence;
    rule.action = FaultAction::KillVm;
    rule.param = victim;
    addRule(rule);
}

void
FaultPlan::failPageInAt(std::uint64_t vm, std::uint64_t occurrence)
{
    FaultRule rule;
    rule.site = static_cast<std::uint64_t>(FaultSite::PageIn);
    rule.vm = vm;
    rule.occurrence = occurrence;
    rule.action = FaultAction::Error;
    addRule(rule);
}

void
FaultPlan::killDuringPageIn(std::uint64_t victim,
                            std::uint64_t occurrence)
{
    FaultRule rule;
    rule.site = static_cast<std::uint64_t>(FaultSite::PageIn);
    rule.vm = victim;
    rule.occurrence = occurrence;
    rule.action = FaultAction::KillVm;
    rule.param = victim;
    addRule(rule);
}

FaultDecision
FaultPlan::decide(FaultSite site, std::uint64_t vm, std::uint64_t nr,
                  bool allow_chance)
{
    for (CountedRule &counted : rules) {
        const FaultRule &rule = counted.rule;
        if (counted.spent)
            continue;
        if (rule.site != faultAny &&
            rule.site != static_cast<std::uint64_t>(site)) {
            continue;
        }
        if (!siteAccepts(site, rule.action))
            continue;
        if (rule.hcNr != faultAny && rule.hcNr != nr)
            continue;
        if (rule.vm != faultAny && rule.vm != vm)
            continue;
        ++counted.matches;
        if (counted.matches < rule.occurrence)
            continue;
        if (!rule.repeat)
            counted.spent = true;
        const FaultDecision decision{rule.action, rule.param};
        record(site, vm, nr, decision);
        return decision;
    }

    // Probabilistic chaos, only at sites where it makes sense and only
    // when a chance is configured: an all-zero plan never draws.
    if (allow_chance) {
        if (dropChance > 0.0 && rng.chance(dropChance)) {
            const FaultDecision decision{FaultAction::Drop, 0};
            record(site, vm, nr, decision);
            return decision;
        }
        if (delayChance > 0.0 && rng.chance(delayChance)) {
            const auto ns = static_cast<std::uint64_t>(
                rng.exponential(static_cast<double>(delayMeanNs)));
            const FaultDecision decision{FaultAction::Delay, ns};
            record(site, vm, nr, decision);
            return decision;
        }
        if (duplicateChance > 0.0 && rng.chance(duplicateChance)) {
            const FaultDecision decision{FaultAction::Duplicate, 0};
            record(site, vm, nr, decision);
            return decision;
        }
    }
    return FaultDecision{};
}

FaultDecision
FaultPlan::onHypercall(std::uint64_t vm, std::uint64_t nr)
{
    return decide(FaultSite::Hypercall, vm, nr, /*allow_chance=*/true);
}

FaultDecision
FaultPlan::onGateCall(std::uint64_t vm)
{
    // Gate calls are the exit-less data path: only scripted faults
    // (GateStale) apply; the hypercall chaos knobs do not.
    return decide(FaultSite::Gate, vm, faultAny, /*allow_chance=*/false);
}

FaultDecision
FaultPlan::onAttachBuild(std::uint64_t vm)
{
    return decide(FaultSite::AttachBuild, vm, faultAny,
                  /*allow_chance=*/false);
}

FaultDecision
FaultPlan::onCapability(std::uint64_t vm)
{
    return decide(FaultSite::Capability, vm, faultAny,
                  /*allow_chance=*/false);
}

FaultDecision
FaultPlan::onPageIn(std::uint64_t vm)
{
    // The hypercall chaos knobs do not apply here; the swap device has
    // its own error/latency distribution.
    FaultDecision decision =
        decide(FaultSite::PageIn, vm, faultAny, /*allow_chance=*/false);
    if (decision.action != FaultAction::None)
        return decision;
    if (pageInErrorChance > 0.0 && rng.chance(pageInErrorChance)) {
        decision = FaultDecision{FaultAction::Error, 0};
        record(FaultSite::PageIn, vm, faultAny, decision);
        return decision;
    }
    if (pageInDelayChance > 0.0 && rng.chance(pageInDelayChance)) {
        const auto ns = static_cast<std::uint64_t>(rng.exponential(
            static_cast<double>(pageInDelayMeanNs)));
        decision = FaultDecision{FaultAction::Delay, ns};
        record(FaultSite::PageIn, vm, faultAny, decision);
        return decision;
    }
    return FaultDecision{};
}

void
FaultPlan::record(FaultSite site, std::uint64_t vm, std::uint64_t nr,
                  const FaultDecision &decision)
{
    ++injected;
    log += detail::format(
        "#%llu %s vm=%llu nr=0x%llx -> %s param=%llu\n",
        (unsigned long long)injected, siteToString(site),
        (unsigned long long)vm, (unsigned long long)nr,
        faultActionToString(decision.action),
        (unsigned long long)decision.param);
}

} // namespace elisa::sim
