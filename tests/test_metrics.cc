/**
 * @file
 * The observability layer: Metrics registry (StatSet adoption,
 * exporters), ExitLedger accounting, and the Engine's periodic
 * simulated-time sampler.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hh"
#include "sim/exit_ledger.hh"
#include "sim/metrics.hh"
#include "sim/stats.hh"

namespace
{

using namespace elisa;
using namespace elisa::sim;

// ===================================================================
// StatSet adoption.
// ===================================================================

TEST(Metrics, StatSetAdoption)
{
    StatSet stats;
    stats.inc("calls", 3);
    stats.inc("faults");

    Metrics m;
    m.attachStatSet(stats, {{"vm", "7"}}, "vcpu_");
    EXPECT_EQ(m.prometheus(), "# TYPE vcpu_calls counter\n"
                              "vcpu_calls_total{vm=\"7\"} 3\n"
                              "# TYPE vcpu_faults counter\n"
                              "vcpu_faults_total{vm=\"7\"} 1\n");

    // The set keeps living in its subsystem: later increments are
    // visible at the next export without re-attaching.
    stats.inc("calls");
    EXPECT_NE(m.prometheus().find("vcpu_calls_total{vm=\"7\"} 4\n"),
              std::string::npos);

    // Re-attach replaces labels/prefix instead of duplicating.
    m.attachStatSet(stats, {{"vm", "8"}}, "vcpu_");
    EXPECT_EQ(m.prometheus(), "# TYPE vcpu_calls counter\n"
                              "vcpu_calls_total{vm=\"8\"} 4\n"
                              "# TYPE vcpu_faults counter\n"
                              "vcpu_faults_total{vm=\"8\"} 1\n");

    m.detachStatSet(stats);
    EXPECT_EQ(m.prometheus(), "");
}

// ===================================================================
// Exporter goldens (byte-exact).
// ===================================================================

/** Two adopted sets: one labeled, one bare. */
struct GoldenRegistry
{
    GoldenRegistry()
    {
        gate.inc("calls", 3);
        machine.inc("depth", 2);
        m.attachStatSet(gate, {{"path", "gate"}});
        m.attachStatSet(machine, {});
    }

    StatSet gate;
    StatSet machine;
    Metrics m;
};

TEST(MetricsExport, PrometheusGolden)
{
    const std::string want = "# TYPE calls counter\n"
                             "calls_total{path=\"gate\"} 3\n"
                             "# TYPE depth counter\n"
                             "depth_total 2\n";
    const GoldenRegistry golden;
    EXPECT_EQ(golden.m.prometheus(), want);
    // Byte-deterministic: repeated export is identical.
    EXPECT_EQ(golden.m.prometheus(), golden.m.prometheus());
}

TEST(MetricsExport, PrometheusSanitizesNamesAndEscapesValues)
{
    StatSet stats;
    stats.inc("rx-pkts");
    Metrics m;
    m.attachStatSet(stats, {{"path", "a\"b\\c\nd"}}, "9net.");
    const std::string text = m.prometheus();
    EXPECT_NE(text.find("_9net_rx_pkts_total"), std::string::npos);
    EXPECT_NE(text.find("{path=\"a\\\"b\\\\c\\nd\"} 1"),
              std::string::npos);
}

TEST(MetricsExport, CsvHeaderRowAndSampler)
{
    GoldenRegistry golden;
    const Metrics &m = golden.m;
    const std::string header = "sim_ns,\"calls{path=\"\"gate\"\"}\","
                               "depth\n";
    EXPECT_EQ(renderMetricsCsvHeader(m.exportSamples()), header);
    EXPECT_EQ(renderMetricsCsvRow(100, m.exportSamples()), "100,3,2\n");

    // The sampler counts columns structurally: quoted header cells
    // with embedded commas (labeled metrics) must not trip the
    // counter-appeared-after-sampling panic.
    MetricsCsvSampler sampler(m);
    sampler.sample(100);
    golden.gate.inc("calls");
    sampler.sample(200);
    EXPECT_EQ(sampler.rows(), 2u);
    EXPECT_EQ(sampler.csv(), header + "100,3,2\n200,4,2\n");
}

// ===================================================================
// ExitLedger.
// ===================================================================

TEST(ExitLedger, SlotsAreDenseAndChargesAccumulate)
{
    ExitLedger led;
    const LedgerSlot a = led.slot(1, 0, CostKind::Exit, 2);
    const LedgerSlot b = led.slot(1, 0, CostKind::Hypercall, 2);
    const LedgerSlot c = led.slot(2, 1, CostKind::GateLeg, 0);
    EXPECT_EQ(led.slot(1, 0, CostKind::Exit, 2), a); // stable
    EXPECT_NE(a, b); // same code, different kind
    EXPECT_NE(a, c);

    led.charge(a, 660);
    led.chargeN(b, 699, 3);
    led.observe(c, 42);
    led.observe(c, 42);

    EXPECT_EQ(led.rows().size(), 3u);
    EXPECT_EQ(led.totalEvents(), 6u);
    EXPECT_EQ(led.totalNs(), 660u + 3 * 699u + 2 * 42u);
    EXPECT_EQ(led.kindNs(CostKind::Exit), 660u);
    EXPECT_EQ(led.kindNs(CostKind::Hypercall), 3 * 699u);
    EXPECT_EQ(led.kindNs(CostKind::GateLeg), 84u);
    EXPECT_EQ(led.vmNs(1), 660u + 3 * 699u);
    EXPECT_EQ(led.vmNs(2), 84u);

    // Conservation: per-kind totals partition the grand total.
    EXPECT_EQ(led.kindNs(CostKind::Exit) +
                  led.kindNs(CostKind::Hypercall) +
                  led.kindNs(CostKind::GateLeg),
              led.totalNs());

    // observe() also feeds the duration histogram.
    EXPECT_EQ(led.rows()[c].durations.count(), 2u);
    EXPECT_EQ(led.rows()[c].durations.p50(), 42u);
}

TEST(ExitLedger, ReportIsDeterministicAndNamed)
{
    ExitLedger led;
    led.setCodeName(CostKind::Exit, 3, "cpuid");
    led.charge(led.slot(0, 0, CostKind::Exit, 3), 660);
    led.charge(led.slot(0, 0, CostKind::Exit, 9), 100);

    const std::string report = led.report();
    EXPECT_EQ(report, led.report());
    EXPECT_NE(report.find("cpuid"), std::string::npos);
    EXPECT_NE(report.find("9"), std::string::npos); // unnamed code
    EXPECT_NE(report.find("total[exit]"), std::string::npos);
    EXPECT_EQ(led.codeName(CostKind::Exit, 3), "cpuid");
    EXPECT_EQ(led.codeName(CostKind::Exit, 9), "");
}

TEST(ExitLedger, ClearKeepsRowsAndNames)
{
    ExitLedger led;
    led.setCodeName(CostKind::Hypercall, 0, "hc_nop");
    const LedgerSlot s = led.slot(0, 0, CostKind::Hypercall, 0);
    led.charge(s, 699);
    led.clear();
    EXPECT_EQ(led.totalNs(), 0u);
    EXPECT_EQ(led.totalEvents(), 0u);
    EXPECT_EQ(led.rows().size(), 1u); // row survives, zeroed
    EXPECT_EQ(led.slot(0, 0, CostKind::Hypercall, 0), s);
    EXPECT_EQ(led.codeName(CostKind::Hypercall, 0), "hc_nop");
}

// ===================================================================
// Engine periodic sampler.
// ===================================================================

/** Actor advancing a private clock by a fixed stride per step. */
class Stepper : public Actor
{
  public:
    Stepper(SimNs stride, unsigned steps)
        : stride(stride), remaining(steps)
    {
    }

    SimNs actorNow() const override { return now; }

    bool
    step() override
    {
        now += stride;
        return --remaining > 0;
    }

    SimNs now = 0;

  private:
    SimNs stride;
    unsigned remaining;
};

TEST(EngineSampler, FiresEveryBoundaryInOrder)
{
    Engine engine;
    Stepper fast(100, 50);   // finishes at 5000
    Stepper slow(700, 10);   // finishes at 7000
    engine.add(&fast);
    engine.add(&slow);

    std::vector<SimNs> ticks;
    engine.setSampler(1000, [&](SimNs t) { ticks.push_back(t); });
    engine.run();

    // Strictly increasing multiples of the period, no holes, covering
    // the span the minimum clock crossed.
    ASSERT_FALSE(ticks.empty());
    for (std::size_t i = 0; i < ticks.size(); ++i)
        EXPECT_EQ(ticks[i], 1000u * (i + 1));
    EXPECT_GE(ticks.back(), 5000u);
}

TEST(EngineSampler, SamplesMetricsConsistently)
{
    StatSet stats;
    const StatId ops = stats.id("ops");
    Metrics metrics;
    metrics.attachStatSet(stats, {});

    class Worker : public Actor
    {
      public:
        Worker(StatSet &s, StatId id) : s(s), id(id) {}
        SimNs actorNow() const override { return now; }
        bool
        step() override
        {
            s.inc(id);
            now += 250;
            return now < 4000;
        }

      private:
        StatSet &s;
        StatId id;
        SimNs now = 0;
    };

    Worker w(stats, ops);
    Engine engine;
    engine.add(&w);
    MetricsCsvSampler sampler(metrics);
    engine.setSampler(1000, [&](SimNs t) { sampler.sample(t); });
    engine.run();

    EXPECT_GE(sampler.rows(), 3u);
    // Header + monotone rows; the counter in the last row can't
    // exceed the final value.
    EXPECT_NE(sampler.csv().find("sim_ns,ops\n"), std::string::npos);
    EXPECT_EQ(stats.get(ops), 16u);
}

} // anonymous namespace
