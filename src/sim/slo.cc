#include "sim/slo.hh"

#include "base/logging.hh"

namespace elisa::sim
{

SloWatchdog::SloWatchdog(Tracer *tracer, std::uint32_t track)
    : tracerPtr(tracer), alertTrack(track)
{
}

std::size_t
SloWatchdog::addRule(SloRule rule)
{
    panic_if(rule.name.empty(), "SLO rule with empty name");
    panic_if(rule.burnWindow == 0, "SLO burn window must be positive");
    rules.push_back(RuleState{std::move(rule), false, 0, 0, 0, false});
    return rules.size() - 1;
}

unsigned
SloWatchdog::evaluate(const SnapshotView &snap)
{
    ++evalCount;
    unsigned fired = 0;
    for (std::size_t i = 0; i < rules.size(); ++i) {
        RuleState &state = rules[i];
        const SloRule &rule = state.rule;

        // Find the sample this rule watches. Samples are sorted by
        // (family, labelStr); a linear scan is fine at snapshot rates.
        const ExportSample *sample = nullptr;
        for (const ExportSample &s : snap.samples()) {
            if (s.family == rule.family && s.labelStr == rule.labelStr) {
                sample = &s;
                break;
            }
        }

        bool have_value = false;
        double value = 0;
        if (sample) {
            switch (rule.kind) {
              case SloKind::CounterRateAbove: {
                if (sample->kind != MetricKind::Counter)
                    break;
                if (state.havePrev &&
                    snap.simNs() > state.prevNs &&
                    sample->counterVal >= state.prevCounter) {
                    const double delta = static_cast<double>(
                        sample->counterVal - state.prevCounter);
                    const double secs =
                        static_cast<double>(snap.simNs() -
                                            state.prevNs) /
                        1e9;
                    value = delta / secs;
                    have_value = true;
                }
                state.havePrev = true;
                state.prevCounter = sample->counterVal;
                state.prevNs = snap.simNs();
                break;
              }
              case SloKind::GaugeAbove:
                if (sample->kind == MetricKind::Gauge) {
                    value = sample->gaugeVal;
                    have_value = true;
                }
                break;
              case SloKind::HistP99Above:
                if (sample->kind == MetricKind::Histogram) {
                    value = static_cast<double>(sample->hist.p99);
                    have_value = true;
                }
                break;
            }
        }

        const bool breach = have_value && value > rule.threshold;
        if (!breach) {
            state.breaches = 0;
            state.firing = false; // re-arm
            continue;
        }
        ++state.breaches;
        if (state.breaches < rule.burnWindow || state.firing)
            continue;
        state.firing = true;
        ++fired;
        firedAlerts.push_back(Alert{rule.name, snap.simNs(), value});
        if (tracerPtr) {
            tracerPtr->instant(
                SpanCat::Telemetry, TraceName::SloAlert, alertTrack,
                snap.simNs(), static_cast<std::uint64_t>(i),
                static_cast<std::uint64_t>(value));
        }
    }
    return fired;
}

std::string
SloWatchdog::report() const
{
    std::string out;
    for (const Alert &alert : firedAlerts) {
        out += detail::format("[slo] %-24s fired at %llu ns (%.6g)\n",
                              alert.rule.c_str(),
                              (unsigned long long)alert.ns,
                              alert.value);
    }
    if (out.empty())
        out = "[slo] no alerts\n";
    return out;
}

} // namespace elisa::sim
