/**
 * @file
 * SLO watchdog: deterministic burn-rate rules evaluated against
 * scraped telemetry snapshots in simulated time.
 *
 * The watchdog consumes SnapshotViews (typically the monitor guest's
 * scrape stream) and fires alerts when a rule's condition holds for
 * `burnWindow` consecutive snapshots — the classic short-window /
 * long-window burn-rate shape collapsed onto the snapshot cadence:
 * the cadence is the short window, burnWindow × cadence the long one.
 * Everything is integer/compare math over already-deterministic
 * snapshot bytes, so alert instants are byte-reproducible across runs;
 * each firing emits a SpanCat::Telemetry instant into the trace
 * (arg0 = rule index, arg1 = observed value).
 *
 * Rule kinds:
 *  - CounterRateAbove: d(counter)/d(sim seconds) between consecutive
 *    snapshots exceeds threshold (page-in rate, replication lag ops).
 *  - GaugeAbove: gauge sample exceeds threshold (queue depth, frames).
 *  - HistP99Above: a histogram sample's materialized p99 exceeds
 *    threshold ns (gate-call p99).
 */

#ifndef ELISA_SIM_SLO_HH
#define ELISA_SIM_SLO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "sim/telemetry.hh"
#include "sim/tracer.hh"

namespace elisa::sim
{

/** What a rule compares. */
enum class SloKind : std::uint8_t
{
    CounterRateAbove, ///< events per simulated second
    GaugeAbove,       ///< raw gauge value
    HistP99Above,     ///< histogram p99 (ns)
};

/** One burn-rate rule. */
struct SloRule
{
    std::string name;     ///< alert name (report/trace annotation)
    SloKind kind = SloKind::GaugeAbove;
    std::string family;   ///< sample family to match (sanitized form)
    std::string labelStr; ///< rendered label string ("" = unlabeled)
    double threshold = 0; ///< breach when observed > threshold
    unsigned burnWindow = 1; ///< consecutive breaches before firing
};

class SloWatchdog
{
  public:
    /**
     * @param tracer optional alert-instant sink; @p track the lane
     *        alerts are emitted on (by convention the monitor vCPU).
     */
    explicit SloWatchdog(Tracer *tracer = nullptr,
                         std::uint32_t track = 0);

    /** Add a rule; returns its index (arg0 of its alert instants). */
    std::size_t addRule(SloRule rule);

    /**
     * Evaluate every rule against @p snap. Snapshots must arrive in
     * nondecreasing sim_ns order. Returns how many alerts fired at
     * this snapshot. A rule re-arms after any non-breaching snapshot.
     */
    unsigned evaluate(const SnapshotView &snap);

    /** One fired alert. */
    struct Alert
    {
        std::string rule;
        SimNs ns = 0;
        double value = 0;
    };

    const std::vector<Alert> &alerts() const { return firedAlerts; }

    /** Snapshots evaluated so far. */
    std::uint64_t evaluations() const { return evalCount; }

    /** Deterministic text summary (one line per alert). */
    std::string report() const;

  private:
    struct RuleState
    {
        SloRule rule;
        bool havePrev = false;
        std::uint64_t prevCounter = 0;
        SimNs prevNs = 0;
        unsigned breaches = 0; ///< consecutive breaching snapshots
        bool firing = false;   ///< fired and not yet re-armed
    };

    Tracer *tracerPtr;
    std::uint32_t alertTrack;
    std::vector<RuleState> rules;
    std::vector<Alert> firedAlerts;
    std::uint64_t evalCount = 0;
};

} // namespace elisa::sim

#endif // ELISA_SIM_SLO_HH
