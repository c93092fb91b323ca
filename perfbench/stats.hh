/**
 * @file
 * Aggregation for the benchmark: slice-rate throughput, the metric
 * name rules, and per-span-name host-time statistics folded from
 * recorded spans.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/histogram.hh"
#include "spans.hh"

namespace perfbench
{

/**
 * Throughput of a run from its fixed-work slices: slice i did
 * @p ops[i] operations in @p ns[i] host nanoseconds, and the result is
 * the upper decile of the slice rates (nearest rank; slices of zero
 * length are skipped; 0 when none remain). Host interference only ever
 * slows a slice, and on the reference host it comes in phases of
 * seconds to tens of seconds: the median then lands on whichever phase
 * filled most of the run, while the upper decile reads the undisturbed
 * speed whenever a tenth of the run had it.
 */
double sliceRate(const std::vector<std::uint64_t> &ops,
                 const std::vector<std::int64_t> &ns);

/**
 * True when @p name may name a metric: 1 to 64 letters, digits, '_',
 * '.' and '-', starting with a letter or a digit.
 */
bool validMetricName(std::string_view name);

/** Host-time statistics of one span name. */
struct NameStats
{
    /** Duration of every span (ns). */
    elisa::sim::Histogram ns{6, 1ull << 40};
    /** Summed self time (ns). */
    std::int64_t selfNs = 0;
    /** Direct children of these spans. */
    std::uint64_t children = 0;
};

/**
 * Folds batches of spans into per-name statistics, plus per-operation
 * sums for names grouped with group(): one sample per operation of the
 * summed durations of that operation's spans in the group (a packet's
 * guestTx + hostCollectTx, say).
 */
class SpanStats
{
  public:
    /** Make @p parts contribute to the per-op group @p group. */
    void group(SpanName group_key, const std::vector<SpanName> &parts);

    /** Fold one batch (spans of whole operations only). */
    void fold(const std::vector<Span> &spans);

    /** Statistics of @p name (empty when never recorded). */
    const NameStats &of(SpanName name);

    /** Per-op sums of group @p group_key. */
    const elisa::sim::Histogram &groupOf(SpanName group_key);

  private:
    std::map<SpanName, NameStats> byName;
    std::map<SpanName, SpanName> partOf;
    std::map<SpanName, elisa::sim::Histogram> groups;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
