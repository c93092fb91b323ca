/**
 * @file
 * The benchmark's own tests: slice-rate aggregation, span self time,
 * the metric-name rules, and tiny runs of every workload whose digest
 * must repeat exactly (and must not move when tracing is on).
 */

#include <gtest/gtest.h>

#include <set>

#include "run.hh"
#include "stats.hh"

namespace perfbench
{
namespace
{

TEST(SliceRate, InterferenceDoesNotMoveTheRate)
{
    // Seven of ten 1000-op slices slowed two-fold by interference: the
    // median would read the slowed rate, the upper decile does not.
    const std::vector<std::uint64_t> ops(10, 1000);
    const std::vector<std::int64_t> ns = {2000000, 1000000, 2000000,
                                          2000000, 2000000, 1000000,
                                          2000000, 2000000, 1000000,
                                          2000000};
    EXPECT_DOUBLE_EQ(sliceRate(ops, ns), 1e6);
}

TEST(SliceRate, NearestRankUpperDecile)
{
    // Rates 1..20 ops/s: the 18th of 20 has two slices above it.
    std::vector<std::uint64_t> ops;
    std::vector<std::int64_t> ns;
    for (std::uint64_t r = 20; r >= 1; --r) {
        ops.push_back(r);
        ns.push_back(1000000000);
    }
    EXPECT_DOUBLE_EQ(sliceRate(ops, ns), 18);
    EXPECT_DOUBLE_EQ(sliceRate({5}, {1000000000}), 5);
}

TEST(SliceRate, ZeroLengthSlicesAreSkipped)
{
    EXPECT_DOUBLE_EQ(sliceRate({10, 20}, {0, 1000}), 2e7);
    EXPECT_DOUBLE_EQ(sliceRate({10}, {0}), 0);
    EXPECT_DOUBLE_EQ(sliceRate({}, {}), 0);
}

TEST(SpanSelfTime, NestedOverlappingAndBackToBackChildren)
{
    std::vector<Span> spans = {
        {0, noParent, 1, 0, 100},  // 0 root
        {1, 0, 1, 10, 30},         // 1 child
        {2, 1, 1, 12, 20},         // 2 grandchild, nested in 1
        {1, 0, 1, 30, 50},         // 3 back-to-back with 1
        {1, 0, 1, 40, 60},         // 4 overlaps 3
        {1, 0, 1, 90, 120},        // 5 runs past the root's end
    };
    const std::vector<std::int64_t> self = selfTimes(spans);
    // Children cover [10,60] and [90,100] of the root.
    EXPECT_EQ(self[0], 100 - 50 - 10);
    EXPECT_EQ(self[1], 20 - 8);
    EXPECT_EQ(self[2], 8);
    EXPECT_EQ(self[3], 20);
    EXPECT_EQ(self[4], 20);
    EXPECT_EQ(self[5], 30);
}

TEST(SpanSelfTime, RecorderLinksParentsAndOps)
{
    SpanRecorder rec;
    const SpanName outer = rec.intern("outer");
    const SpanName inner = rec.intern("inner");
    EXPECT_EQ(rec.intern("outer"), outer);
    const std::uint64_t op = rec.newOp();
    {
        SpanScope a(&rec, outer);
        SpanScope b(&rec, inner);
    }
    {
        SpanScope c(&rec, inner);
    }
    const std::vector<Span> spans = rec.take();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].parent, noParent);
    EXPECT_EQ(spans[1].parent, 0u);
    EXPECT_EQ(spans[2].parent, noParent);
    for (const Span &s : spans) {
        EXPECT_EQ(s.op, op);
        EXPECT_LE(s.startNs, s.endNs);
    }
    EXPECT_TRUE(rec.spans().empty());
}

TEST(SpanSelfTime, FoldGroupsSpansPerOperation)
{
    SpanStats stats;
    stats.group(9, {1, 2});
    stats.fold({
        {1, noParent, 7, 0, 100},
        {2, noParent, 7, 100, 150},
        {1, noParent, 8, 200, 210},
    });
    const elisa::sim::Histogram &g = stats.groupOf(9);
    EXPECT_EQ(g.count(), 2u);
    EXPECT_EQ(g.sum(), 160u);
    EXPECT_EQ(stats.of(1).ns.count(), 2u);
}

TEST(MetricNames, Charset)
{
    EXPECT_TRUE(validMetricName("ops_per_s"));
    EXPECT_TRUE(validMetricName("net.tx_ns.ivshmem.1472.p50"));
    EXPECT_TRUE(validMetricName("0-a_b.c"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName(".p50"));
    EXPECT_FALSE(validMetricName("_x"));
    EXPECT_FALSE(validMetricName("ops/s"));
    EXPECT_FALSE(validMetricName("a b"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
}

TEST(MetricNames, CataloguesAreValidAndUnique)
{
    std::set<std::string> seen;
    for (const auto *list : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricSpec &m : *list) {
            EXPECT_TRUE(validMetricName(m.name)) << m.name;
            EXPECT_TRUE(seen.insert(m.name).second) << m.name;
            EXPECT_FALSE(m.unit.empty());
            EXPECT_LE(m.unit.size(), 16u);
        }
    }
}

/** A one-slice run of @p spec. */
RunResult
tinyRun(const WorkloadSpec &spec, std::uint64_t seed, bool trace)
{
    RunOptions opt;
    opt.spec = &spec;
    opt.seed = seed;
    opt.slices = 1;
    opt.trace = trace;
    opt.startNs = hostNowNs();
    return run(opt);
}

TEST(TinyRun, DigestRepeatsExactlyTracedOrNot)
{
    for (const WorkloadSpec &spec : workloads()) {
        SCOPED_TRACE(spec.name);
        const RunResult a = tinyRun(spec, 7, false);
        const RunResult b = tinyRun(spec, 7, false);
        const RunResult traced = tinyRun(spec, 7, true);
        EXPECT_EQ(a.digest, b.digest);
        EXPECT_EQ(a.digest, traced.digest);
        EXPECT_GT(a.attempted, 0u);
        EXPECT_EQ(a.failed, 0u);
        EXPECT_EQ(traced.failed, 0u);
        ASSERT_EQ(a.metrics.size(), endToEndMetrics().size());
        ASSERT_EQ(traced.metrics.size(), perLayerMetrics().size());
        EXPECT_GT(a.metrics[0].value, 0); // ops_per_s
    }
}

} // anonymous namespace
} // namespace perfbench
