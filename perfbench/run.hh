/**
 * @file
 * One benchmark run: set-up, unmeasured warm-up, measured fixed-work
 * slices, correctness digest and the metrics of the run's mode.
 */

#ifndef PERFBENCH_RUN_HH
#define PERFBENCH_RUN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workload.hh"

namespace perfbench
{

/** Name and unit of a metric the benchmark can report. */
struct MetricSpec
{
    std::string name;
    std::string unit;
};

/** The end-to-end metrics of an untraced run. */
const std::vector<MetricSpec> &endToEndMetrics();

/** The per-layer metrics of a traced run (every workload reports all;
 *  a layer a workload does not call reads 0 with sample count 0). */
const std::vector<MetricSpec> &perLayerMetrics();

/** What to run. */
struct RunOptions
{
    const WorkloadSpec *spec = nullptr;
    std::uint64_t seed = 0;
    /** Measured slices (the run's fixed amount of work). */
    std::uint64_t slices = 0;
    /** Record spans and report per-layer metrics. */
    bool trace = false;
    /** Stop after set-up (reports only setupSeconds). */
    bool setupOnly = false;
    /** Host time set-up is measured from (process start). */
    std::int64_t startNs = 0;
    /** Spans kept for the dump (0 = none). */
    std::size_t dumpSpans = 0;
};

/** What a run measured. */
struct RunResult
{
    double setupSeconds = 0;
    std::vector<std::uint64_t> sliceOps;
    std::vector<std::int64_t> sliceNs;
    /** Operations checked (warm-up included) and those that failed. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Simulated-time digest: final vCPU clocks, counters, outcomes. */
    std::uint64_t digest = 0;
    /** Metrics of the run's mode, in catalogue order. */
    std::vector<Metric> metrics;
    /** CSV of the first RunOptions::dumpSpans spans (traced runs). */
    std::string spanDump;
};

/** Run one workload in this process. */
RunResult run(const RunOptions &options);

} // namespace perfbench

#endif // PERFBENCH_RUN_HH
