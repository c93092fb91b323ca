/**
 * @file
 * Tests for the telemetry plane: the snapshot wire format (round-trip
 * fidelity, byte-determinism, corruption rejection, forward-compatible
 * section skipping), the publisher's seqlock region protocol and
 * overflow policy, the monitor guest's three scrape schemes and their
 * byte-identity with the host-side export, and the per-VM flight
 * recorder's ring/dump mechanics.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "base/units.hh"
#include "elisa/gate.hh"
#include "elisa/guest_api.hh"
#include "elisa/manager.hh"
#include "guest/monitor.hh"
#include "hv/hypercall.hh"
#include "hv/hypervisor.hh"
#include "hv/ivshmem.hh"
#include "hv/telemetry_publisher.hh"
#include "sim/exit_ledger.hh"
#include "sim/flight_recorder.hh"
#include "sim/metrics.hh"
#include "sim/telemetry.hh"
#include "sim/tracer.hh"

namespace
{

using namespace elisa;
using namespace elisa::core;
using sim::CostKind;
using sim::Metrics;
using sim::SnapshotView;
using sim::SpanCat;
using sim::TracePhase;
using sim::Tracer;
using Layout = sim::TelemetryRegionLayout;

/** Serialize + parse @p sources in one step (must succeed). */
SnapshotView
snapOf(const sim::TelemetrySources &sources, std::uint64_t seq,
       SimNs now, std::size_t tail = 256)
{
    const auto bytes =
        sim::serializeTelemetrySnapshot(sources, seq, now, tail);
    SnapshotView view;
    EXPECT_TRUE(view.parse(bytes.data(), bytes.size()))
        << view.error();
    return view;
}

// ===================================================================
// Snapshot wire format.
// ===================================================================

TEST(Snapshot, RoundTripPreservesEverySection)
{
    Metrics m;
    const auto c = m.counter("requests", {{"vm", "3"}});
    const auto g = m.gauge("queue_depth");
    const auto h = m.histogram("gate_ns");
    m.add(c, 41);
    m.set(g, 2.718281828459045); // survives bit-exactly, not as text
    m.observe(h, 196);
    m.observe(h, 699);

    sim::ExitLedger led;
    const auto leg = led.slot(1, 0, CostKind::GateLeg, 2);
    const auto hc = led.slot(2, 1, CostKind::Hypercall, 7);
    led.observe(leg, 196);
    led.chargeN(hc, 699, 3);

    Tracer tr(64);
    const auto n = tr.intern("gate_call");
    tr.begin(SpanCat::Gate, n, 5, 1000, 11, 22);
    tr.end(SpanCat::Gate, n, 5, 1196);
    tr.instant(SpanCat::Telemetry, tr.intern("alert"), 6, 1200, 1);

    const auto bytes =
        sim::serializeTelemetrySnapshot({&m, &led, &tr}, 7, 1234);
    SnapshotView v;
    ASSERT_TRUE(v.parse(bytes.data(), bytes.size())) << v.error();
    EXPECT_EQ(v.seq(), 7u);
    EXPECT_EQ(v.simNs(), 1234u);
    EXPECT_EQ(v.totalBytes(), bytes.size());
    EXPECT_TRUE(v.hasMetrics());
    EXPECT_TRUE(v.hasLedger());
    EXPECT_TRUE(v.hasTrace());

    // Metric samples survive field-for-field; the gauge double comes
    // back with the identical IEEE-754 bit pattern.
    const auto want = m.exportSamples();
    ASSERT_EQ(v.samples().size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        const auto &a = v.samples()[i];
        const auto &b = want[i];
        EXPECT_EQ(a.family, b.family);
        EXPECT_EQ(a.labelStr, b.labelStr);
        EXPECT_EQ(a.labels, b.labels);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.counterVal, b.counterVal);
        EXPECT_EQ(std::memcmp(&a.gaugeVal, &b.gaugeVal,
                              sizeof(double)),
                  0);
        EXPECT_EQ(a.hist.count, b.hist.count);
        EXPECT_EQ(a.hist.p99, b.hist.p99);
    }

    // Ledger rows arrive in slot order.
    ASSERT_EQ(v.ledgerRows().size(), 2u);
    EXPECT_EQ(v.ledgerRows()[0].vm, 1u);
    EXPECT_EQ(v.ledgerRows()[0].kind, CostKind::GateLeg);
    EXPECT_EQ(v.ledgerRows()[0].code, 2u);
    EXPECT_EQ(v.ledgerRows()[0].events, 1u);
    EXPECT_EQ(v.ledgerRows()[0].ns, 196u);
    EXPECT_EQ(v.ledgerRows()[1].vcpu, 1u);
    EXPECT_EQ(v.ledgerRows()[1].events, 3u);
    EXPECT_EQ(v.ledgerRows()[1].ns, 3u * 699u);

    // Trace tail with names resolved through the local name table.
    ASSERT_EQ(v.traceTail().size(), 3u);
    EXPECT_EQ(v.traceTail()[0].name, "gate_call");
    EXPECT_EQ(v.traceTail()[0].phase, TracePhase::Begin);
    EXPECT_EQ(v.traceTail()[0].arg0, 11u);
    EXPECT_EQ(v.traceTail()[0].arg1, 22u);
    EXPECT_EQ(v.traceTail()[1].ts, 1196u);
    EXPECT_EQ(v.traceTail()[2].name, "alert");
    EXPECT_EQ(v.traceTail()[2].cat, SpanCat::Telemetry);
    EXPECT_EQ(v.traceTail()[2].track, 6u);
    EXPECT_EQ(v.traceEmitted(), 3u);
    EXPECT_EQ(v.traceDropped(), 0u);

    // Re-renders go through the very renderers the host export uses.
    EXPECT_EQ(v.prometheus(), m.prometheus());
    EXPECT_EQ(v.csvHeader(), m.csvHeader());
    EXPECT_EQ(v.csvRow(), m.csvRow(1234));
}

TEST(Snapshot, SerializationIsByteDeterministic)
{
    const auto build = [] {
        Metrics m;
        m.add(m.counter("a", {{"vm", "1"}}), 9);
        m.set(m.gauge("b"), 0.125);
        sim::ExitLedger led;
        led.charge(led.slot(0, 0, CostKind::Exit, 3), 42);
        Tracer tr(16);
        tr.instant(SpanCat::Cpu, tr.intern("x"), 0, 5);
        return sim::serializeTelemetrySnapshot({&m, &led, &tr}, 3,
                                               900);
    };
    EXPECT_EQ(build(), build());
}

TEST(Snapshot, TraceTailCapKeepsTheNewestEvents)
{
    Tracer tr(64);
    const auto n = tr.intern("ev");
    for (std::uint64_t i = 0; i < 10; ++i)
        tr.instant(SpanCat::Cpu, n, 0, i * 10, i);

    const auto v = snapOf({nullptr, nullptr, &tr}, 1, 0, /*tail=*/4);
    ASSERT_EQ(v.traceTail().size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(v.traceTail()[i].arg0, i + 6); // newest 4, in order
    EXPECT_EQ(v.traceEmitted(), 10u); // lifetime counters still carried

    // tail = 0 omits the section even though a tracer is present.
    const auto none = snapOf({nullptr, nullptr, &tr}, 2, 0, 0);
    EXPECT_FALSE(none.hasTrace());

    // All-null sources: a valid, empty snapshot.
    const auto empty = snapOf({}, 3, 77);
    EXPECT_FALSE(empty.hasMetrics());
    EXPECT_FALSE(empty.hasLedger());
    EXPECT_FALSE(empty.hasTrace());
    EXPECT_EQ(empty.seq(), 3u);
    EXPECT_EQ(empty.totalBytes(), sim::snapshotHeaderBytes);
}

TEST(Snapshot, RejectsCorruptedBytes)
{
    Metrics m;
    m.add(m.counter("x"), 1);
    const auto good = sim::serializeTelemetrySnapshot({&m}, 1, 10);

    SnapshotView v;
    ASSERT_TRUE(v.parse(good.data(), good.size()));

    // A flipped payload byte fails the checksum.
    auto bad = good;
    bad[sim::snapshotHeaderBytes + 3] ^= 0xff;
    EXPECT_FALSE(v.parse(bad.data(), bad.size()));
    EXPECT_NE(v.error().find("checksum"), std::string::npos);
    EXPECT_FALSE(v.ok());
    EXPECT_TRUE(v.samples().empty()); // a failed parse leaves nothing

    // Truncation: total now points past the buffer.
    EXPECT_FALSE(v.parse(good.data(), good.size() - 1));

    // Wrong magic and unsupported version are rejected before any
    // section is touched.
    bad = good;
    bad[0] ^= 0xff;
    EXPECT_FALSE(v.parse(bad.data(), bad.size()));
    bad = good;
    bad[4] += 1; // version
    EXPECT_FALSE(v.parse(bad.data(), bad.size()));
    EXPECT_NE(v.error().find("version"), std::string::npos);

    // Shorter than the fixed header.
    EXPECT_FALSE(v.parse(good.data(), sim::snapshotHeaderBytes - 1));

    // The original still parses (reject paths don't corrupt state).
    EXPECT_TRUE(v.parse(good.data(), good.size()));
    EXPECT_TRUE(v.ok());
}

TEST(Snapshot, UnknownSectionsAreSkipped)
{
    Metrics m;
    m.add(m.counter("kept"), 5);
    auto bytes = sim::serializeTelemetrySnapshot({&m}, 4, 40);

    // Splice a section with an unknown tag after the metrics section,
    // then re-patch the header (sections, total, checksum) the way a
    // future serializer version would have written it.
    const std::uint8_t extra[] = {0x77, 0x77, 0,    0,   // tag
                                  4,    0,    0,    0,   // bytes
                                  0xde, 0xad, 0xbe, 0xef};
    bytes.insert(bytes.end(), std::begin(extra), std::end(extra));

    const auto patch16 = [&](std::size_t at, std::uint16_t v) {
        bytes[at] = static_cast<std::uint8_t>(v);
        bytes[at + 1] = static_cast<std::uint8_t>(v >> 8);
    };
    const auto patch32 = [&](std::size_t at, std::uint32_t v) {
        for (unsigned i = 0; i < 4; ++i)
            bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    };
    patch16(6, 2); // sections
    patch32(24, static_cast<std::uint32_t>(bytes.size())); // total
    patch32(28, sim::telemetryChecksum(
                    bytes.data() + sim::snapshotHeaderBytes,
                    bytes.size() - sim::snapshotHeaderBytes));

    SnapshotView v;
    ASSERT_TRUE(v.parse(bytes.data(), bytes.size())) << v.error();
    EXPECT_TRUE(v.hasMetrics());
    EXPECT_EQ(v.prometheus(), m.prometheus());
}

// ===================================================================
// Publisher: region formatting, seqlock protocol, overflow policy.
// ===================================================================

/** Host-side view of one publication region. */
class RegionReader
{
  public:
    RegionReader(const mem::HostMemory &mem, Hpa base)
        : pm(mem), at(base)
    {
    }

    std::uint32_t
    u32(std::uint64_t off) const
    {
        std::uint32_t v = 0;
        std::memcpy(&v, pm.raw(at + off, 4), 4);
        return v;
    }

    std::uint64_t u64(std::uint64_t off) const
    {
        return pm.read64(at + off);
    }

    std::vector<std::uint8_t>
    slot(std::uint32_t index, std::uint32_t slot_bytes,
         std::uint32_t len) const
    {
        std::vector<std::uint8_t> out(len);
        std::memcpy(out.data(),
                    pm.raw(at + Layout::slotOffset(index, slot_bytes),
                           len),
                    len);
        return out;
    }

  private:
    const mem::HostMemory &pm;
    Hpa at;
};

TEST(Publisher, SeqlockProtocolAlternatesSlots)
{
    hv::Hypervisor hv(64 * MiB);
    hv::Vm &vm = hv.createVm("sink", 16 * MiB);
    Metrics m;
    const auto c = m.counter("x");
    m.add(c, 1);
    hv::TelemetryPublisher pub(hv, m);

    constexpr std::uint32_t slot = 8 * KiB;
    const auto gpa = vm.allocGuestMem(Layout::regionBytes(slot));
    ASSERT_TRUE(gpa);
    const Hpa base = vm.ramGpaToHpa(*gpa);
    EXPECT_EQ(pub.addSink(base, Layout::regionBytes(slot), "host"),
              0u);
    EXPECT_EQ(pub.sinkCount(), 1u);
    EXPECT_EQ(pub.slotBytes(0), slot);
    EXPECT_EQ(pub.sinkBase(0), base);

    const RegionReader region(hv.memory(), base);
    EXPECT_EQ(region.u32(Layout::offMagic), Layout::magic);
    EXPECT_EQ(region.u32(Layout::offSlotBytes), slot);
    EXPECT_EQ(region.u64(Layout::offSeq), 0u); // nothing published

    // First publication: the writer bumps the seqlock word twice
    // (odd while writing, even when stable) and fills the slot that
    // was inactive.
    EXPECT_EQ(pub.publish(1000), 1u);
    EXPECT_EQ(region.u64(Layout::offSeq), 2u);
    EXPECT_EQ(region.u32(Layout::offActive), 1u);
    EXPECT_EQ(region.u32(Layout::offLen1), pub.lastSnapshot().size());
    EXPECT_EQ(region.u64(Layout::offPubCount), 1u);
    EXPECT_EQ(region.u64(Layout::offLastPubNs), 1000u);
    EXPECT_EQ(region.slot(1, slot,
                          static_cast<std::uint32_t>(
                              pub.lastSnapshot().size())),
              pub.lastSnapshot());

    // Second publication lands in the other slot.
    m.add(c, 1);
    EXPECT_EQ(pub.publish(2000), 2u);
    EXPECT_EQ(region.u64(Layout::offSeq), 4u);
    EXPECT_EQ(region.u32(Layout::offActive), 0u);
    EXPECT_EQ(region.u32(Layout::offLen0), pub.lastSnapshot().size());
    EXPECT_EQ(region.slot(0, slot,
                          static_cast<std::uint32_t>(
                              pub.lastSnapshot().size())),
              pub.lastSnapshot());
    EXPECT_EQ(pub.publications(), 2u);
    EXPECT_EQ(pub.overflows(), 0u);
}

TEST(Publisher, OverflowLeavesSinkOnPreviousSnapshot)
{
    hv::Hypervisor hv(64 * MiB);
    hv::Vm &vm = hv.createVm("sink", 16 * MiB);
    Metrics m;
    m.add(m.counter("tiny"), 1);
    hv::TelemetryPublisher pub(hv, m);
    pub.setTraceTail(0);

    // A small sink the first snapshot fits in, and a large one that
    // always fits.
    constexpr std::uint32_t small = 256;
    constexpr std::uint32_t large = 64 * KiB;
    const auto small_gpa = vm.allocGuestMem(Layout::regionBytes(small));
    const auto large_gpa = vm.allocGuestMem(Layout::regionBytes(large));
    ASSERT_TRUE(small_gpa && large_gpa);
    const Hpa small_base = vm.ramGpaToHpa(*small_gpa);
    pub.addSink(small_base, Layout::regionBytes(small), "small");
    pub.addSink(vm.ramGpaToHpa(*large_gpa), Layout::regionBytes(large),
                "large");

    ASSERT_LE(sim::serializeTelemetrySnapshot({&m}, 1, 0).size(),
              small);
    EXPECT_EQ(pub.publish(100), 1u);
    EXPECT_EQ(pub.overflows(), 0u);

    const RegionReader region(hv.memory(), small_base);
    const std::uint32_t held_len = region.u32(Layout::offLen1);
    const auto held = region.slot(1, small, held_len);

    // Grow the registry until the snapshot outgrows the small slot.
    for (int i = 0; i < 40; ++i)
        m.add(m.counter("padding_metric_family_" + std::to_string(i)),
              1);
    ASSERT_GT(sim::serializeTelemetrySnapshot({&m}, 2, 0).size(),
              small);

    EXPECT_EQ(pub.publish(200), 2u);
    EXPECT_EQ(pub.overflows(), 1u);

    // The small sink still holds the seq-1 snapshot, intact: stale
    // beats truncated. The seqlock word never went odd for it.
    EXPECT_EQ(region.u64(Layout::offSeq), 2u);
    EXPECT_EQ(region.u32(Layout::offActive), 1u);
    EXPECT_EQ(region.slot(1, small, held_len), held);
    SnapshotView stale;
    ASSERT_TRUE(stale.parse(held.data(), held.size()));
    EXPECT_EQ(stale.seq(), 1u);

    // The large sink moved on to seq 2.
    const RegionReader big(hv.memory(),
                           vm.ramGpaToHpa(*large_gpa));
    EXPECT_EQ(big.u64(Layout::offPubCount), 2u);
}

// ===================================================================
// Monitor guest: three scrape schemes, one wire format.
// ===================================================================

class MonitorTest : public ::testing::Test
{
  protected:
    MonitorTest()
        : hv(256 * MiB), svc(hv),
          managerVm(hv.createVm("manager", 64 * MiB)),
          monitorVm(hv.createVm("monitor", 16 * MiB)),
          manager(managerVm, svc), monitor(monitorVm, svc),
          publisher(hv, metrics)
    {
        hv.setLedger(&ledger);
        hv.setTracer(&tracer);
    }

    /** Export the region, attach the monitor, and attach metrics. */
    void
    wireUp(std::uint32_t slot_bytes = 64 * KiB)
    {
        const auto exported = elisa::guest::exportTelemetryRegion(
            manager, publisher, ExportKey("telemetry"), slot_bytes);
        ASSERT_TRUE(exported);
        ASSERT_TRUE(monitor.attach(ExportKey("telemetry"), manager));
        hv.attachMetrics(metrics);
    }

    sim::ExitLedger ledger;
    Tracer tracer{1024};
    Metrics metrics;
    hv::Hypervisor hv;
    ElisaService svc;
    hv::Vm &managerVm;
    hv::Vm &monitorVm;
    ElisaManager manager;
    elisa::guest::MonitorGuest monitor;
    hv::TelemetryPublisher publisher;
};

TEST_F(MonitorTest, ThreeSchemesReexportHostBytesExactly)
{
    constexpr std::uint32_t slot = 64 * KiB;
    wireUp(slot);

    // Scheme 2: a direct-mapped ivshmem mirror of the same region.
    hv::IvshmemRegion mirror(hv, "telemetry-mirror",
                             Layout::regionBytes(slot));
    publisher.addSink(mirror.base(), mirror.size(), "mirror");
    constexpr Gpa mirrorGpa = 0x5000000000ull;
    ASSERT_TRUE(mirror.attach(monitorVm, mirrorGpa, ept::Perms::Read));

    // Scheme 3: the VMCALL marshalling service.
    const std::uint64_t nr = publisher.registerScrapeHypercall();
    ASSERT_NE(nr, 0u);

    // Host truth is frozen immediately before the publish that
    // snapshots the same state — the scrapes below bump vCPU counters
    // and must not leak into the comparison.
    const SimNs now = 1'000'000;
    const std::string host = metrics.prometheus();
    const std::string hostCsv =
        metrics.csvHeader() + metrics.csvRow(now);
    publisher.publish(now);

    ASSERT_TRUE(monitor.scrape());
    EXPECT_EQ(monitor.prometheus(), host);
    ASSERT_TRUE(monitor.scrapeIvshmem(mirrorGpa));
    EXPECT_EQ(monitor.prometheus(), host);
    ASSERT_TRUE(monitor.scrapeVmcall(nr));
    EXPECT_EQ(monitor.prometheus(), host);

    EXPECT_EQ(monitor.scrapes(), 3u);
    EXPECT_EQ(monitor.newSnapshots(), 1u); // one distinct publication
    EXPECT_EQ(monitor.failures(), 0u);
    EXPECT_EQ(monitor.retries(), 0u);
    EXPECT_EQ(monitor.snapshot().seq(), 1u);
    EXPECT_EQ(monitor.snapshot().simNs(), now);

    // The accumulated CSV document equals the host-side sampler's.
    EXPECT_EQ(monitor.csvDocument(), hostCsv);

    // The snapshot carried ledger rows and trace spans too.
    EXPECT_TRUE(monitor.snapshot().hasLedger());
    EXPECT_TRUE(monitor.snapshot().hasTrace());
    EXPECT_FALSE(monitor.snapshot().ledgerRows().empty());

    mirror.detach(monitorVm, mirrorGpa);
}

TEST_F(MonitorTest, ScrapeBeforeFirstPublishFailsCleanly)
{
    wireUp();
    EXPECT_FALSE(monitor.scrape());
    EXPECT_EQ(monitor.failures(), 1u);
    EXPECT_FALSE(monitor.hasSnapshot());
    EXPECT_EQ(monitor.retries(), 0u); // seq 0 is "nothing", not a race
}

TEST_F(MonitorTest, SeqlockRetriesWhileAPublicationIsInFlight)
{
    wireUp();
    publisher.publish(500);

    // Fake a writer in flight: force the seqlock word odd.
    const Hpa base = publisher.sinkBase(0);
    const std::uint64_t even =
        hv.memory().read64(base + Layout::offSeq);
    ASSERT_EQ(even % 2, 0u);
    hv.memory().write64(base + Layout::offSeq, even | 1);

    EXPECT_FALSE(monitor.scrape(/*max_retries=*/2));
    EXPECT_EQ(monitor.retries(), 3u); // every attempt saw an odd seq
    EXPECT_EQ(monitor.failures(), 1u);

    // Writer "finishes": the scrape succeeds again.
    hv.memory().write64(base + Layout::offSeq, even);
    EXPECT_TRUE(monitor.scrape());
    EXPECT_EQ(monitor.snapshot().seq(), 1u);
}

TEST_F(MonitorTest, RepeatScrapesOfOneSeqAddNoCsvRows)
{
    wireUp();
    publisher.publish(100);
    ASSERT_TRUE(monitor.scrape());
    ASSERT_TRUE(monitor.scrape());
    EXPECT_EQ(monitor.scrapes(), 2u);
    EXPECT_EQ(monitor.newSnapshots(), 1u);

    publisher.publish(200);
    ASSERT_TRUE(monitor.scrape());
    EXPECT_EQ(monitor.newSnapshots(), 2u);

    // Header row + one row per distinct publication.
    std::size_t lines = 0;
    for (char ch : monitor.csvDocument())
        lines += ch == '\n';
    EXPECT_EQ(lines, 3u);
}

// ===================================================================
// VMCALL scrape service (no ELISA attachment required).
// ===================================================================

TEST(ScrapeHypercall, MarshalsTheLatestSnapshot)
{
    hv::Hypervisor hv(128 * MiB);
    ElisaService svc(hv);
    hv::Vm &monVm = hv.createVm("monitor", 16 * MiB);
    elisa::guest::MonitorGuest mon(monVm, svc);

    Metrics m;
    m.add(m.counter("x"), 5);
    hv::TelemetryPublisher pub(hv, m);
    const std::uint64_t nr = pub.registerScrapeHypercall();
    ASSERT_NE(nr, 0u);
    EXPECT_EQ(pub.registerScrapeHypercall(), nr); // idempotent
    EXPECT_EQ(pub.scrapeHypercallNr(), nr);

    // Nothing published yet: the service returns hcError.
    EXPECT_FALSE(mon.scrapeVmcall(nr));
    EXPECT_EQ(mon.failures(), 1u);

    pub.publish(500);
    ASSERT_TRUE(mon.scrapeVmcall(nr));
    EXPECT_EQ(mon.snapshot().seq(), 1u);
    EXPECT_EQ(mon.prometheus(), m.prometheus());
}

// ===================================================================
// Flight recorder: per-VM rings and post-mortem dumps.
// ===================================================================

TEST(FlightRecorder, ExactlyFullThenOnePastFull)
{
    Tracer tr(64);
    sim::FlightRecorder rec(4);
    rec.setTrackResolver([](std::uint32_t track) {
        return track < 4 ? 7u : sim::FlightRecorder::noVm;
    });

    const auto n = tr.intern("ev");
    for (std::uint64_t i = 0; i < 4; ++i)
        tr.instant(SpanCat::Cpu, n, 0, i * 10, i);
    rec.observe(tr);
    EXPECT_EQ(rec.heldFor(7), 4u); // exactly full, nothing lost
    EXPECT_EQ(rec.droppedFor(7), 0u);

    tr.instant(SpanCat::Cpu, n, 0, 40, 4); // one past full
    tr.instant(SpanCat::Cpu, n, 9, 41, 99); // unattributed track
    rec.observe(tr);
    EXPECT_EQ(rec.heldFor(7), 4u);
    EXPECT_EQ(rec.droppedFor(7), 1u);
    EXPECT_EQ(rec.unattributed(), 1u);
    EXPECT_EQ(rec.missed(), 0u);

    // observe() is incremental: re-observing drains nothing new.
    rec.observe(tr);
    EXPECT_EQ(rec.droppedFor(7), 1u);
}

TEST(FlightRecorder, DumpAfterWrapKeepsNewestSpansOldestFirst)
{
    Tracer tr(64);
    sim::FlightRecorder rec(3);
    rec.setTrackResolver([](std::uint32_t) { return 1u; });

    for (int i = 0; i < 5; ++i)
        tr.instant(SpanCat::Cpu,
                   tr.intern("ev" + std::to_string(i)), 0, 100 + i);
    rec.observe(tr);

    const std::string &json = rec.dump(1, 999, nullptr);
    EXPECT_EQ(json.find("\"ev0\""), std::string::npos);
    EXPECT_EQ(json.find("\"ev1\""), std::string::npos);
    const auto p2 = json.find("\"ev2\"");
    const auto p3 = json.find("\"ev3\"");
    const auto p4 = json.find("\"ev4\"");
    ASSERT_NE(p2, std::string::npos);
    ASSERT_NE(p3, std::string::npos);
    ASSERT_NE(p4, std::string::npos);
    EXPECT_LT(p2, p3);
    EXPECT_LT(p3, p4);

    EXPECT_TRUE(rec.hasPostMortem(1));
    EXPECT_EQ(rec.postMortemVms(), std::vector<std::uint32_t>{1});
    EXPECT_EQ(&rec.postMortem(1), &json);
}

TEST(FlightRecorder, LedgerDeltasConserveAndKillSitesAnnotate)
{
    sim::ExitLedger led;
    sim::FlightRecorder rec(8);
    rec.baseline(led);

    const auto s = led.slot(2, 0, CostKind::Hypercall, 0);
    const auto p = led.slot(2, 0, CostKind::Page, 1);
    led.chargeN(s, 100, 4);
    led.charge(p, 250);

    rec.noteKill(2, "test_kill_site");
    const std::string json = rec.dump(2, 555, &led);
    EXPECT_NE(json.find("test_kill_site"), std::string::npos);
    EXPECT_TRUE(rec.postMortemConserved(2));

    // The annotation is one-shot: a later dump is a plain teardown.
    const std::string &again = rec.dump(2, 556, &led);
    EXPECT_NE(again.find("vm_destroy"), std::string::npos);
    EXPECT_EQ(again.find("test_kill_site"), std::string::npos);

    // Re-baselining zeroes the deltas for the next dump.
    rec.baseline(led);
    const std::string &scoped = rec.dump(2, 557, &led);
    EXPECT_TRUE(rec.postMortemConserved(2));
    EXPECT_NE(scoped.find("\"total_ns\": 0"), std::string::npos);
}

TEST(FlightRecorder, HypervisorDumpsAPostMortemOnDestroy)
{
    Tracer tr(1024);
    sim::ExitLedger led;
    sim::FlightRecorder rec(64);
    hv::Hypervisor hv(128 * MiB);
    hv.setTracer(&tr);
    hv.setLedger(&led);
    hv.setFlightRecorder(&rec);
    ElisaService svc(hv);

    hv::Vm &vm = hv.createVm("doomed", 16 * MiB);
    const VmId id = vm.id();
    for (int i = 0; i < 10; ++i)
        vm.vcpu(0).vmcall(hv::hcArgs(hv::Hc::Nop));

    hv.destroyVm(id);
    ASSERT_TRUE(rec.hasPostMortem(id));
    EXPECT_TRUE(rec.postMortemConserved(id));
    const std::string &json = rec.postMortem(id);
    EXPECT_NE(json.find("vm_destroy"), std::string::npos);
    EXPECT_NE(json.find("hypercall"), std::string::npos);
}

} // anonymous namespace
