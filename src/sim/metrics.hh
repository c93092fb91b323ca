/**
 * @file
 * Labeled export of StatSet counters, with byte-deterministic
 * renderers.
 *
 * StatSet is the one counter store: every subsystem increments its own
 * dense StatIds (zero added cost). A Metrics registry *adopts* those
 * StatSets and, at export time, presents every counter of each as a
 * labeled counter family. It stores no values of its own.
 *
 * Exporters (all byte-deterministic for a given set of counters):
 *  - prometheus(): Prometheus text exposition, counters as
 *    "<name>_total"; families sorted by name, then samples by label
 *    string.
 *  - renderMetricsCsvHeader()/renderMetricsCsvRow(): one wide
 *    time-series row per simulated-time sample (see MetricsCsvSampler
 *    and Engine::setSampler).
 *
 * Layering: like Tracer and FaultPlan, this file knows nothing about
 * vCPUs or the hypervisor; subsystems attach their StatSets with plain
 * string labels (by convention vm="<id>", vcpu="<id>").
 */

#ifndef ELISA_SIM_METRICS_HH
#define ELISA_SIM_METRICS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/types.hh"
#include "sim/stats.hh"

namespace elisa::sim
{

/** One label dimension: (key, value). */
using Label = std::pair<std::string, std::string>;

/** A label set; sorted by key at attachment. */
using Labels = std::vector<Label>;

/**
 * One flattened, self-contained counter sample. The registry's
 * exportSamples() returns these sorted by (family, labelStr); the
 * free renderers below turn a sample vector into the Prometheus/CSV
 * documents. Because the renderers take samples — not the registry —
 * a telemetry consumer that deserialized the samples re-renders the
 * exact bytes the host would have produced.
 */
struct ExportSample
{
    std::string family;   ///< sanitized family name
    std::string labelStr; ///< rendered {k="v",...} or ""
    Labels labels;        ///< raw sorted pairs (telemetry wire form)
    std::uint64_t counterVal = 0;
};

/** Render {k="v",...} (sorted pairs in, "" for empty labels). */
std::string renderMetricLabels(const Labels &labels);

/**
 * Prometheus text exposition (0.0.4) of a flattened sample vector.
 * Metrics::prometheus() delegates here; so does the monitor guest's
 * re-export — one renderer, byte-identical output by construction.
 */
std::string renderPrometheus(const std::vector<ExportSample> &samples);

/** CSV time-series header row for a sample vector ("sim_ns,..."). */
std::string
renderMetricsCsvHeader(const std::vector<ExportSample> &samples);

/** One CSV row of the samples' values at simulated time @p now. */
std::string renderMetricsCsvRow(SimNs now,
                                const std::vector<ExportSample> &samples);

/**
 * The registry of adopted StatSets. The sets stay owned by their
 * subsystems (non-owning pointers, same lifetime contract as
 * Tracer/FaultPlan installation).
 */
class Metrics
{
  public:
    /**
     * Adopt @p set as a family of labeled counters: at export time
     * every counter "x" of the set appears as counter
     * "<prefix>x" with @p labels. Non-owning — the StatSet must
     * outlive this registry or be detached first. Attaching the same
     * set again replaces its labels/prefix (idempotent).
     */
    void attachStatSet(const StatSet &set, Labels labels,
                       std::string prefix = "");

    /** Remove an adopted StatSet (no-op when not attached). */
    void detachStatSet(const StatSet &set);

    /**
     * Flatten every adopted StatSet into self-contained ExportSamples,
     * sorted by (family, labelStr). This is the one collection point
     * all exporters — and the telemetry snapshot serializer — share.
     */
    std::vector<ExportSample> exportSamples() const;

    /**
     * Prometheus text exposition (version 0.0.4), byte-deterministic:
     * families sorted by name, samples sorted by label string.
     * Equivalent to renderPrometheus(exportSamples()).
     */
    std::string prometheus() const;

  private:
    struct Source
    {
        const StatSet *set;
        Labels labels;
        std::string prefix;
    };

    std::vector<Source> sources;
};

/**
 * Accumulates one CSV row per sample tick into a growing document.
 * Pair it with Engine::setSampler for periodic simulated-time
 * snapshots:
 *
 *   MetricsCsvSampler sampler(metrics);
 *   engine.setSampler(10_000, [&](SimNs t) { sampler.sample(t); });
 *
 * The column set is frozen at construction (the header row); a sample
 * observing a different column count panics, pointing at a counter
 * that appeared after sampling started.
 */
class MetricsCsvSampler
{
  public:
    explicit MetricsCsvSampler(const Metrics &metrics);

    /** Append one row at simulated time @p now. */
    void sample(SimNs now);

    /** Rows recorded so far. */
    std::size_t rows() const { return rowCount; }

    /** The full CSV document (header + rows). */
    const std::string &csv() const { return doc; }

  private:
    const Metrics &reg;
    std::string doc;
    std::size_t samplesPerRow;
    std::size_t rowCount = 0;
};

} // namespace elisa::sim

#endif // ELISA_SIM_METRICS_HH
