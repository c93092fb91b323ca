/**
 * @file
 * Unit + property tests for the simulation core: clocks, RNG, stats,
 * histograms, resources, and the discrete-event engine.
 */

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/clock.hh"
#include "sim/cost_model.hh"
#include "sim/engine.hh"
#include "sim/histogram.hh"
#include "sim/resource.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace
{

using namespace elisa;
using namespace elisa::sim;

TEST(SimClock, AdvanceAndSync)
{
    SimClock c;
    EXPECT_EQ(c.now(), 0u);
    c.advance(100);
    EXPECT_EQ(c.now(), 100u);
    EXPECT_EQ(c.syncTo(50), 0u);   // never goes backwards
    EXPECT_EQ(c.now(), 100u);
    EXPECT_EQ(c.syncTo(250), 150u);
    EXPECT_EQ(c.now(), 250u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(1234), b(1234);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng r(42);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.below(bound), bound);
    }
}

TEST(Rng, BetweenInclusive)
{
    Rng r(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = r.between(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ExponentialMeanConverges)
{
    Rng r(11);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(100.0);
    EXPECT_NEAR(sum / n, 100.0, 5.0);
}

TEST(StatSet, IncrementAndClear)
{
    StatSet s;
    s.inc("a");
    s.inc("a", 2);
    s.inc("b");
    EXPECT_EQ(s.get("a"), 3u);
    EXPECT_EQ(s.get("b"), 1u);
    EXPECT_EQ(s.get("missing"), 0u);
    s.clear();
    EXPECT_EQ(s.get("a"), 0u);
}

TEST(Histogram, ExactForSmallValues)
{
    Histogram h;
    for (std::uint64_t v = 0; v < 64; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 64u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 63u);
    EXPECT_EQ(h.percentile(0.0), 0u);
    EXPECT_EQ(h.percentile(1.0), 63u);
}

TEST(Histogram, PercentileWithinRelativeErrorBound)
{
    Histogram h(6);
    Rng r(123);
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t v = 100 + r.below(1000000);
        samples.push_back(v);
        h.record(v);
    }
    std::sort(samples.begin(), samples.end());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const std::uint64_t exact =
            samples[static_cast<std::size_t>(q * (samples.size() - 1))];
        const std::uint64_t approx = h.percentile(q);
        // 1/2^6 relative quantization plus rank slop.
        EXPECT_NEAR((double)approx, (double)exact, 0.04 * exact + 2);
    }
}

TEST(Histogram, CeilRankPercentileAtBucketBoundaries)
{
    // Small exact-region values: the percentile is the ceil-rank
    // order statistic with no interpolation artifacts. For {1,2,3,4}:
    // rank(q) = ceil(q * 4), so p50 is the 2nd value, not 2.5
    // rounded to 3 (the pre-fix behaviour).
    Histogram h;
    for (std::uint64_t v : {1u, 2u, 3u, 4u})
        h.record(v);
    EXPECT_EQ(h.percentile(0.25), 1u);
    EXPECT_EQ(h.percentile(0.5), 2u);
    EXPECT_EQ(h.percentile(0.75), 3u);
    EXPECT_EQ(h.percentile(1.0), 4u);
    // Just past a boundary picks the next order statistic.
    EXPECT_EQ(h.percentile(0.51), 3u);

    // The integer-exact ratio form agrees with the double form and
    // with the named accessors the exporters use.
    EXPECT_EQ(h.percentileRatio(1, 2), h.percentile(0.5));
    EXPECT_EQ(h.p50(), h.percentile(0.5));
    EXPECT_EQ(h.p95(), h.percentile(0.95));
    EXPECT_EQ(h.p99(), h.percentile(0.99));
    EXPECT_EQ(h.p999(), h.percentile(0.999));
}

TEST(Histogram, NamedPercentilesAndSum)
{
    // All values inside the exact region (< 2^sub_bucket_bits), so
    // the named accessors are exact order statistics.
    Histogram h;
    std::uint64_t total = 0;
    for (std::uint64_t v = 0; v < 64; ++v) {
        h.record(v);
        total += v;
    }
    EXPECT_EQ(h.sum(), total);
    EXPECT_EQ(h.p50(), 31u);  // rank 32, values are 0-based
    EXPECT_EQ(h.p95(), 60u);  // rank ceil(60.8) = 61
    EXPECT_EQ(h.p99(), 63u);  // rank ceil(63.36) = 64
    EXPECT_EQ(h.p999(), 63u); // rank ceil(63.936) = 64

    // Empty histogram: everything is 0, nothing divides by zero.
    Histogram empty;
    EXPECT_EQ(empty.sum(), 0u);
    EXPECT_EQ(empty.p50(), 0u);
    EXPECT_EQ(empty.p999(), 0u);
}

TEST(Histogram, MergeAndSaturation)
{
    Histogram a(6, 1 << 20), b(6, 1 << 20);
    a.record(100);
    b.record(200);
    b.record(5u << 20); // saturates
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.saturated(), 1u);
    EXPECT_EQ(a.min(), 100u);
}

TEST(Histogram, MeanApproximation)
{
    Histogram h;
    for (int i = 0; i < 1000; ++i)
        h.record(1000);
    EXPECT_NEAR(h.mean(), 1000.0, 1000.0 * 0.02);
}

TEST(Histogram, ClearForgetsEverything)
{
    Histogram h;
    h.record(100);
    h.record(200);
    h.clear();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0.99), 0u);
    EXPECT_EQ(h.max(), 0u);
    h.record(50);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 50u);
}

TEST(Histogram, RecordNBatches)
{
    Histogram h;
    h.recordN(1000, 500);
    h.recordN(2000, 500);
    EXPECT_EQ(h.count(), 1000u);
    // Median sits at the boundary between the two spikes.
    EXPECT_NEAR((double)h.percentile(0.25), 1000.0, 40.0);
    EXPECT_NEAR((double)h.percentile(0.75), 2000.0, 60.0);
    EXPECT_NE(h.summary().find("n=1000"), std::string::npos);
}

TEST(SimResource, ResetClearsOccupancy)
{
    SimResource server;
    server.submit(0, 1000);
    server.reset();
    EXPECT_EQ(server.busyUntil(), 0u);
    EXPECT_EQ(server.count(), 0u);
    EXPECT_EQ(server.submit(5, 10), 15u);
}

TEST(SimLock, ArbitratesInSimulatedTime)
{
    SimLock lock;
    SimClock a, b;
    a.advance(100);
    // a holds [100, 400).
    lock.acquire(a);
    a.advance(300);
    lock.release(a);
    // b arrives at 50: must wait until 400.
    b.advance(50);
    const SimNs waited = lock.acquire(b);
    EXPECT_EQ(waited, 350u);
    EXPECT_EQ(b.now(), 400u);
}

TEST(SimLock, AcquireForConvenience)
{
    SimLock lock;
    SimClock a;
    EXPECT_EQ(lock.acquireFor(a, 100), 0u);
    EXPECT_EQ(a.now(), 100u);
    SimClock b;
    EXPECT_EQ(lock.acquireFor(b, 50), 100u);
    EXPECT_EQ(b.now(), 150u);
    EXPECT_EQ(lock.count(), 2u);
    EXPECT_EQ(lock.totalWait(), 100u);
}

TEST(SimResource, FifoQueueing)
{
    SimResource server;
    EXPECT_EQ(server.submit(0, 10), 10u);
    EXPECT_EQ(server.submit(0, 10), 20u);   // queues behind first
    EXPECT_EQ(server.submit(100, 10), 110u); // idle gap
    EXPECT_EQ(server.count(), 3u);
    EXPECT_EQ(server.totalBusy(), 30u);
}

/** Test actor: advances its clock by a fixed stride per step. */
class StrideActor : public Actor
{
  public:
    StrideActor(SimNs stride, int steps, std::vector<int> *log, int tag,
                SimNs start = 0)
        : stride(stride), remaining(steps), log(log), tag(tag)
    {
        clock.advance(start);
    }

    SimNs actorNow() const override { return clock.now(); }

    bool
    step() override
    {
        log->push_back(tag);
        clock.advance(stride);
        return --remaining > 0;
    }

  private:
    SimClock clock;
    SimNs stride;
    int remaining;
    std::vector<int> *log;
    int tag;
};

TEST(Engine, StepsActorsInClockOrder)
{
    std::vector<int> log;
    StrideActor fast(10, 10, &log, 1);
    StrideActor slow(35, 3, &log, 2);
    Engine engine;
    engine.add(&fast);
    engine.add(&slow);
    const std::uint64_t steps = engine.run();
    EXPECT_EQ(steps, 13u);
    // The slow actor (stride 35) must interleave roughly every 3-4
    // fast steps; verify it was never starved until the end.
    auto first2 = std::find(log.begin(), log.end(), 2);
    EXPECT_LT(std::distance(log.begin(), first2), 5);
}

TEST(Engine, ClearDropsActors)
{
    std::vector<int> log;
    StrideActor a(10, 100, &log, 1);
    Engine engine;
    engine.add(&a);
    engine.clear();
    EXPECT_EQ(engine.run(), 0u);
    EXPECT_TRUE(log.empty());
    EXPECT_EQ(engine.runnable(), 0u);
}

TEST(Engine, HorizonStopsEarly)
{
    std::vector<int> log;
    StrideActor a(100, 1000000, &log, 1);
    Engine engine;
    engine.add(&a);
    engine.run(1000);
    // Steps until the clock passes 1000: start 0,100,...,900 = 10 steps;
    // at 1000 the actor is at/past the horizon.
    EXPECT_EQ(log.size(), 10u);
}

TEST(Engine, ZeroActorRunTerminates)
{
    Engine engine;
    EXPECT_EQ(engine.run(), 0u);

    std::vector<SimNs> samples;
    engine.setSampler(100, [&](SimNs t) { samples.push_back(t); });
    EXPECT_EQ(engine.run(1000), 0u);
    EXPECT_TRUE(samples.empty());
    EXPECT_EQ(engine.runnable(), 0u);
    EXPECT_EQ(engine.delivered(), 0u);
}

TEST(Engine, EqualClockTieBreakIsRegistrationOrder)
{
    // Three actors in lockstep; the middle one finishes early. The
    // per-time scheduling order must stay 1,2,3 / 1,3 — with the old
    // swap-removal scan, removing actor 2 moved actor 3 into its slot
    // and equal-clock rounds came out 1,3 in a history-dependent way.
    std::vector<int> log;
    StrideActor a(10, 10, &log, 1);
    StrideActor b(10, 2, &log, 2);
    StrideActor c(10, 10, &log, 3);
    Engine engine;
    engine.add(&a);
    engine.add(&b);
    engine.add(&c);
    EXPECT_EQ(engine.run(), 22u);

    std::vector<int> expect;
    for (int round = 0; round < 10; ++round) {
        expect.push_back(1);
        if (round < 2)
            expect.push_back(2);
        expect.push_back(3);
    }
    EXPECT_EQ(log, expect);
}

TEST(Engine, ClearResetsSamplerBookkeeping)
{
    std::vector<SimNs> samples;
    std::vector<int> log;
    Engine engine;
    engine.setSampler(100, [&](SimNs t) { samples.push_back(t); });
    StrideActor a(50, 8, &log, 1); // work at 0..350
    engine.add(&a);
    engine.run();
    EXPECT_EQ(samples, (std::vector<SimNs>{100, 200, 300}));

    // A reused engine restarts the sample series at one period; a
    // stale nextSample (400 here) would silently skip every boundary
    // of the second run.
    samples.clear();
    engine.clear();
    StrideActor b(50, 8, &log, 2);
    engine.add(&b);
    engine.run();
    EXPECT_EQ(samples, (std::vector<SimNs>{100, 200, 300}));
}

TEST(Engine, SamplerBoundaryExactlyAtHorizonDoesNotFire)
{
    std::vector<SimNs> samples;
    std::vector<int> log;
    StrideActor a(60, 10, &log, 1);
    Engine engine;
    engine.setSampler(100, [&](SimNs t) { samples.push_back(t); });
    engine.add(&a);

    // Work at 0 and 60 runs; the next unit (120) is at/past the
    // horizon, so nothing below the horizon remains and the boundary
    // at exactly 100 == horizon must not fire.
    engine.run(100);
    EXPECT_TRUE(samples.empty());
    EXPECT_EQ(log.size(), 2u);

    // With the boundary interior to the horizon it fires, before the
    // work at 120 becomes eligible.
    engine.run(130);
    EXPECT_EQ(samples, std::vector<SimNs>{100});
    EXPECT_EQ(log.size(), 3u);
}

TEST(Engine, ActorFinishingOnBoundaryFiresNoTrailingSample)
{
    std::vector<SimNs> samples;
    std::vector<int> log;
    Engine engine;
    engine.setSampler(100, [&](SimNs t) { samples.push_back(t); });

    // One step at t=0 lands the clock exactly on the boundary and
    // finishes the population: the series has no work at/past 100,
    // so the boundary is trailing and must not fire.
    StrideActor a(100, 1, &log, 1);
    engine.add(&a);
    engine.run();
    EXPECT_TRUE(samples.empty());
    EXPECT_EQ(log, std::vector<int>{1});

    // With a companion still working past 100, the boundary is
    // interior: it fires after the finisher's last step (everything
    // below 100 is done) and before the work at 120.
    samples.clear();
    log.clear();
    engine.clear();
    StrideActor f(100, 1, &log, 1);
    StrideActor g(60, 3, &log, 2); // work at 0, 60, 120
    engine.add(&f);
    engine.add(&g);
    engine.run();
    EXPECT_EQ(samples, std::vector<SimNs>{100});
    EXPECT_EQ(log, (std::vector<int>{1, 2, 2, 2}));
}

TEST(Engine, ActorAddedPastNextSampleBackfillsBoundaries)
{
    // Sampler callbacks log -(boundary/100), steps log the actor tag,
    // so the vector shows the exact interleaving.
    std::vector<int> log;
    StrideActor a(40, 3, &log, 1, /*start=*/250); // work at 250/290/330
    Engine engine;
    engine.setSampler(100,
                      [&](SimNs t) { log.push_back(-(int)(t / 100)); });
    engine.add(&a);
    engine.run();

    // The skipped boundaries 100 and 200 each still fire (time series
    // must not have holes), before the actor's first step; 300 fires
    // between the steps at 290 and 330.
    EXPECT_EQ(log, (std::vector<int>{-1, -2, 1, 1, -3, 1}));
}

/** Test actor: one step at each of @p times, running @p body there. */
class TimedActor : public Actor
{
  public:
    TimedActor(std::vector<SimNs> times, std::function<void(SimNs)> body)
        : times(std::move(times)), body(std::move(body))
    {
        clock.syncTo(this->times.front());
    }

    SimNs actorNow() const override { return clock.now(); }

    bool
    step() override
    {
        body(clock.now());
        if (++next == times.size())
            return false;
        clock.syncTo(times[next]);
        return true;
    }

  private:
    std::vector<SimNs> times;
    std::function<void(SimNs)> body;
    std::size_t next = 0;
    SimClock clock;
};

TEST(Engine, EqualTimeEventsDeliverInPostOrderBeforeSteps)
{
    // Two actors aim events at t=100 from interleaved post times, and
    // a third steps at exactly t=100. Delivery follows post order
    // across posters, every event at 100 precedes the step at 100, and
    // an event posted from inside an event callback is delivered too.
    Engine engine;
    std::vector<std::string> log;
    auto logAt = [&](std::string tag) {
        return [&log, tag](SimNs t) {
            log.push_back(tag + "@" + std::to_string(t));
        };
    };
    TimedActor observer({100}, logAt("step"));
    TimedActor p1({0, 20}, [&](SimNs t) {
        engine.post(100, logAt(t == 0 ? "p1a" : "p1b"));
    });
    TimedActor p2({10}, [&](SimNs) {
        engine.post(100, [&](SimNs t) {
            logAt("p2")(t);
            engine.post(150, logAt("chained"));
        });
    });
    // Registered first, yet it steps after every event at its time.
    engine.add(&observer);
    engine.add(&p1);
    engine.add(&p2);

    EXPECT_EQ(engine.run(), 4u);
    EXPECT_EQ(engine.delivered(), 4u);
    EXPECT_EQ(log, (std::vector<std::string>{"p1a@100", "p2@100",
                                             "p1b@100", "step@100",
                                             "chained@150"}));
}

TEST(EngineDeathTest, PostNotStrictlyAfterItemTimePanics)
{
    // A delivery at or before the posting item's time could land in
    // some actor's past; both must panic.
    for (SimNs back : {SimNs{0}, SimNs{1}}) {
        EXPECT_DEATH(
            {
                Engine engine;
                TimedActor a({50}, [&](SimNs t) {
                    engine.post(t - back, [](SimNs) {});
                });
                engine.add(&a);
                engine.run();
            },
            "strictly after the posting item");
    }
}

TEST(CostModel, PaperHeadlineCalibration)
{
    CostModel cost;
    EXPECT_EQ(cost.elisaRttNs(), 196u);
    EXPECT_EQ(cost.vmcallRttNs(), 699u);
    const double ratio =
        (double)cost.vmcallRttNs() / (double)cost.elisaRttNs();
    EXPECT_NEAR(ratio, 3.5, 0.08); // paper: "3.5 times smaller"
}

TEST(CostModel, WireTime)
{
    CostModel cost;
    // 64 B frame + 24 B overhead at 10 GbE = 70.4 ns.
    EXPECT_NEAR(cost.wireTimeNs(64), 70.4, 0.1);
    // 1472 B: (1496*8)/1e10 s = 1196.8 ns -> ~0.84 Mpps line rate.
    EXPECT_NEAR(cost.wireTimeNs(1472), 1196.8, 0.1);
}

} // namespace
