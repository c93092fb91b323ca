/**
 * @file
 * Tests for the sim::Tracer subsystem and its wiring through the
 * stack: ring-buffer mechanics, span nesting under simulated time,
 * the gate-call decomposition, fault-annotated hypercall spans, the
 * negotiation async lifecycle, both exporters (Chrome JSON and the
 * latency report), byte-determinism, and a gate path that records
 * nothing once the hooks are removed — plus the Gate RAII /
 * AttachResult contracts the tracing work rides along with.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "base/units.hh"
#include "elisa/gate.hh"
#include "elisa/guest_api.hh"
#include "elisa/manager.hh"
#include "elisa/negotiation.hh"
#include "hv/hypervisor.hh"
#include "sim/exit_ledger.hh"
#include "sim/fault.hh"
#include "sim/tracer.hh"

namespace
{

using namespace elisa;
using namespace elisa::core;
using sim::SpanCat;
using sim::TraceEvent;
using sim::TraceName;
using sim::TracePhase;
using sim::Tracer;

// ===================================================================
// Tracer mechanics (no machine needed).
// ===================================================================

TEST(Tracer, InternIsDenseAndStable)
{
    Tracer t(8);
    const auto a = t.intern("alpha");
    const auto b = t.intern("beta");
    EXPECT_NE(a, b);
    EXPECT_EQ(t.intern("alpha"), a); // idempotent
    EXPECT_EQ(t.nameOf(a), "alpha");
    EXPECT_EQ(t.nameOf(b), "beta");
    EXPECT_EQ(t.nameOf(TraceName::Unknown), "?"); // visible "unset" name
}

TEST(Tracer, ConstantNamesHaveTheSameIdInEveryTracer)
{
    Tracer a(8);
    Tracer b(8);
    const TraceName made_up = b.intern("made_up");
    EXPECT_EQ(made_up, TraceName::Count); // run-time names come after
    for (unsigned i = 1; i < static_cast<unsigned>(TraceName::Count);
         ++i) {
        const auto id = static_cast<TraceName>(i);
        EXPECT_EQ(a.nameOf(id), b.nameOf(id));
        EXPECT_EQ(b.intern(a.nameOf(id)), id); // no duplicate strings
    }
    EXPECT_EQ(a.nameOf(TraceName::ZeroFill), "zero_fill");
}

TEST(Tracer, RingWrapsKeepingTheNewestWindow)
{
    Tracer t(4);
    const auto n = t.intern("ev");
    for (std::uint64_t i = 0; i < 6; ++i)
        t.instant(SpanCat::Cpu, n, 0, /*ts=*/i * 10, /*a0=*/i);

    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.capacity(), 4u);
    EXPECT_EQ(t.emitted(), 6u);
    EXPECT_EQ(t.dropped(), 2u);

    // Oldest-first snapshot holds exactly events 2..5.
    const auto events = t.snapshot();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(events[i].arg0, i + 2);
        EXPECT_EQ(events[i].ts, (i + 2) * 10);
    }

    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.emitted(), 0u);
    EXPECT_EQ(t.nameOf(n), "ev"); // names survive a clear
}

TEST(Tracer, ExactlyFullThenOnePastFullAndDumpAfterWrap)
{
    Tracer t(4);
    const auto n = t.intern("ev");

    // Exactly full: every event retained, nothing dropped yet.
    for (std::uint64_t i = 0; i < 4; ++i)
        t.instant(SpanCat::Cpu, n, 0, /*ts=*/i * 10, /*a0=*/i);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.emitted(), 4u);
    EXPECT_EQ(t.dropped(), 0u);
    auto events = t.snapshot();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().arg0, 0u);
    EXPECT_EQ(events.back().arg0, 3u);

    // One past full: the single oldest event is evicted, order holds.
    t.instant(SpanCat::Cpu, n, 0, /*ts=*/40, /*a0=*/4);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.emitted(), 5u);
    EXPECT_EQ(t.dropped(), 1u);
    events = t.snapshot();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(events[i].arg0, i + 1);

    // A dump after the wrap renders the surviving window only, and
    // the timestamps it carries are the post-wrap ones.
    const std::string json = t.chromeJson();
    EXPECT_EQ(json.find("\"ts\":0.000"), std::string::npos);
    EXPECT_NE(json.find("\"ts\":0.040"), std::string::npos);
}

TEST(Tracer, ScopedSpanIsInertWithoutATracerAndClosesOnUnwind)
{
    sim::SimClock clk;
    {
        sim::ScopedSpan inert(nullptr, SpanCat::Gate, TraceName::GateCall,
                              0, clk);
        // No tracer: nothing to observe, and nothing crashes.
    }

    Tracer t(8);
    const auto n = t.intern("guarded");
    try {
        sim::ScopedSpan span(&t, SpanCat::Gate, n, 3, clk, 7);
        clk.advance(50);
        throw std::runtime_error("unwind");
    } catch (const std::runtime_error &) {
    }
    const auto events = t.snapshot();
    ASSERT_EQ(events.size(), 2u); // the End fired during the unwind
    EXPECT_EQ(events[0].phase, TracePhase::Begin);
    EXPECT_EQ(events[0].arg0, 7u);
    EXPECT_EQ(events[1].phase, TracePhase::End);
    EXPECT_EQ(events[1].ts - events[0].ts, 50u);
    EXPECT_EQ(events[1].track, 3u);
}

TEST(Tracer, ChromeJsonGolden)
{
    // A hand-built event sequence renders to exactly these bytes:
    // the golden pins the exporter's format (and thus the trace
    // fingerprint the CI determinism job compares).
    Tracer t(8);
    const auto s = t.intern("span");
    const auto i = t.intern("dot");
    t.begin(SpanCat::Gate, s, 1, 1500, 2, 3);
    t.instant(SpanCat::Net, i, 1, 1750);
    t.asyncBegin(SpanCat::Negotiation, s, 0xbeef, 1, 1800);
    t.end(SpanCat::Gate, s, 1, 2000, 9);

    const std::string expected =
        "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
        "{\"name\":\"span\",\"cat\":\"gate\",\"ph\":\"B\",\"ts\":1.500,"
        "\"pid\":0,\"tid\":1,\"args\":{\"a0\":2,\"a1\":3}},\n"
        "{\"name\":\"dot\",\"cat\":\"net\",\"ph\":\"i\",\"ts\":1.750,"
        "\"pid\":0,\"tid\":1,\"s\":\"t\",\"args\":{\"a0\":0,\"a1\":0}},\n"
        "{\"name\":\"span\",\"cat\":\"negotiation\",\"ph\":\"b\","
        "\"ts\":1.800,\"pid\":0,\"tid\":1,\"id\":\"0xbeef\","
        "\"args\":{\"a0\":0,\"a1\":0}},\n"
        "{\"name\":\"span\",\"cat\":\"gate\",\"ph\":\"E\",\"ts\":2.000,"
        "\"pid\":0,\"tid\":1,\"args\":{\"a0\":9,\"a1\":0}}\n"
        "]}\n";
    EXPECT_EQ(t.chromeJson(), expected);
}

TEST(Tracer, LatencyReportAggregatesMatchedSpans)
{
    Tracer t(16);
    const auto n = t.intern("work");
    t.begin(SpanCat::Gate, n, 0, 0);
    t.end(SpanCat::Gate, n, 0, 100);
    t.begin(SpanCat::Gate, n, 0, 1000);
    t.end(SpanCat::Gate, n, 0, 1300);
    // An async pair on a different category.
    t.asyncBegin(SpanCat::Negotiation, n, 5, 0, 0);
    t.asyncEnd(SpanCat::Negotiation, n, 5, 0, 5000);
    // One dangling Begin: reported as open, never guessed at.
    t.begin(SpanCat::Kvs, n, 0, 9000);

    const std::string report = t.latencyReport();
    EXPECT_NE(report.find("events=7"), std::string::npos);
    EXPECT_NE(report.find("unmatched_or_open=1"), std::string::npos);
    EXPECT_NE(report.find("[gate       ] work"), std::string::npos);
    EXPECT_NE(report.find("n=2 mean="), std::string::npos);
    EXPECT_NE(report.find("max=300.0 ns"), std::string::npos);
    EXPECT_NE(report.find("[negotiation] work"), std::string::npos);
    EXPECT_NE(report.find("max=5.00 us"), std::string::npos);
}

// ===================================================================
// Machine-level tracing: the spans the instrumented layers emit.
// ===================================================================

/** One manager, one guest, one no-op export, tracer installed. */
class TraceTest : public ::testing::Test
{
  protected:
    TraceTest()
        : hv(256 * MiB), svc(hv),
          managerVm(hv.createVm("manager", 16 * MiB)),
          guestVm(hv.createVm("guest", 16 * MiB)),
          manager(managerVm, svc), guest(guestVm, svc)
    {
        hv.setTracer(&tracer);
        SharedFnTable fns;
        fns.push_back([](SubCallCtx &) { return std::uint64_t{42}; });
        EXPECT_TRUE(manager.exportObject(ExportKey("obj"), 4 * KiB,
                                         std::move(fns)));
    }

    /** Events of one (category, name), oldest first. */
    std::vector<TraceEvent>
    eventsNamed(SpanCat cat, const std::string &name)
    {
        std::vector<TraceEvent> out;
        for (const TraceEvent &ev : tracer.snapshot()) {
            if (ev.cat == cat && tracer.nameOf(ev.name) == name)
                out.push_back(ev);
        }
        return out;
    }

    sim::Tracer tracer;
    hv::Hypervisor hv;
    ElisaService svc;
    hv::Vm &managerVm;
    hv::Vm &guestVm;
    ElisaManager manager;
    ElisaGuest guest;
};

TEST_F(TraceTest, GateCallDecomposesIntoThePaperSpans)
{
    AttachResult attached = guest.tryAttach(ExportKey("obj"), manager);
    ASSERT_TRUE(attached.ok());
    Gate gate = attached.take();

    gate.call(0); // warm: translation caches, interned stat ids
    tracer.clear();
    EXPECT_EQ(gate.call(0), 42u);

    // One call: one gate_call span wrapping 4 eptp_switch spans, one
    // stack_swap, one payload, one return phase.
    const auto calls = eventsNamed(SpanCat::Gate, "gate_call");
    const auto switches = eventsNamed(SpanCat::Gate, "eptp_switch");
    const auto swaps = eventsNamed(SpanCat::Gate, "stack_swap");
    const auto payloads = eventsNamed(SpanCat::Gate, "payload");
    const auto returns = eventsNamed(SpanCat::Gate, "return");
    ASSERT_EQ(calls.size(), 2u);
    ASSERT_EQ(switches.size(), 8u);
    ASSERT_EQ(swaps.size(), 2u);
    ASSERT_EQ(payloads.size(), 2u);
    ASSERT_EQ(returns.size(), 2u);

    // The whole call costs the paper's 196 ns RTT (no-memory fn)...
    EXPECT_EQ(calls[1].ts - calls[0].ts, hv.cost().elisaRttNs());
    // ...each EPTP switch its 42 ns...
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(switches[2 * i + 1].ts - switches[2 * i].ts, 42u);
    // ...and the trampoline segments 14 ns each.
    EXPECT_EQ(swaps[1].ts - swaps[0].ts, 14u);

    // Spans nest: gate_call brackets everything else.
    EXPECT_LE(calls[0].ts, switches[0].ts);
    EXPECT_GE(calls[1].ts, switches[7].ts);

    // The End event carries (ret, fn + 1).
    EXPECT_EQ(calls[1].arg0, 42u);
    EXPECT_EQ(calls[1].arg1, 1u);

    // Per-track timestamps are monotone (the exporter relies on it).
    SimNs prev = 0;
    for (const TraceEvent &ev : tracer.snapshot()) {
        if (ev.track != gate.info().gateIndex && ev.track == 1) {
            EXPECT_GE(ev.ts, prev);
            prev = ev.ts;
        }
    }
}

TEST_F(TraceTest, NegotiationLifecycleIsOneAsyncSpan)
{
    AttachResult attached = guest.tryAttach(ExportKey("obj"), manager);
    ASSERT_TRUE(attached.ok());
    ASSERT_TRUE(attached.request().has_value());
    const std::uint64_t rid = *attached.request();

    const auto reqs = eventsNamed(SpanCat::Negotiation,
                                  "attach_request");
    ASSERT_EQ(reqs.size(), 2u);
    EXPECT_EQ(reqs[0].phase, TracePhase::AsyncBegin);
    EXPECT_EQ(reqs[0].flowId, rid);
    EXPECT_EQ(reqs[1].phase, TracePhase::AsyncEnd);
    EXPECT_EQ(reqs[1].flowId, rid);
    EXPECT_GT(reqs[1].ts, reqs[0].ts);

    const auto ok = eventsNamed(SpanCat::Negotiation, "approved");
    ASSERT_EQ(ok.size(), 1u);
    EXPECT_EQ(ok[0].flowId, rid);
}

TEST_F(TraceTest, DeniedNegotiationEndsTheSpanWithDenied)
{
    manager.setApprover([](VmId, const std::string &) {
        return false;
    });
    AttachResult denied = guest.tryAttach(ExportKey("obj"), manager);
    EXPECT_EQ(denied.status(), AttachStatus::Denied);

    const auto reqs = eventsNamed(SpanCat::Negotiation,
                                  "attach_request");
    ASSERT_EQ(reqs.size(), 2u);
    EXPECT_EQ(reqs[1].phase, TracePhase::AsyncEnd);
    EXPECT_EQ(eventsNamed(SpanCat::Negotiation, "denied").size(), 1u);
    EXPECT_TRUE(eventsNamed(SpanCat::Negotiation, "approved").empty());
}

TEST_F(TraceTest, HypercallSpansCarryNameAndRc)
{
    tracer.clear();
    cpu::HypercallArgs args; // Nop
    guestVm.vcpu(0).vmcall(args);

    const auto nops = eventsNamed(SpanCat::Hypercall, "hc_nop");
    ASSERT_EQ(nops.size(), 2u);
    EXPECT_EQ(nops[0].phase, TracePhase::Begin);
    EXPECT_EQ(nops[1].phase, TracePhase::End);
    EXPECT_EQ(nops[1].arg0, 0u); // rc

    // The framing vmcall span wraps the dispatch span.
    const auto frames = eventsNamed(SpanCat::Cpu, "vmcall");
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_LE(frames[0].ts, nops[0].ts);
    EXPECT_GE(frames[1].ts, nops[1].ts);
}

TEST_F(TraceTest, InjectedFaultAnnotatesTheHypercallSpan)
{
    sim::FaultPlan plan(7);
    sim::FaultRule rule;
    rule.hcNr = static_cast<std::uint64_t>(hv::Hc::Nop);
    rule.action = sim::FaultAction::Drop;
    plan.addRule(rule);
    hv.setFaultPlan(&plan);
    tracer.clear();

    cpu::HypercallArgs args; // Nop
    EXPECT_EQ(guestVm.vcpu(0).vmcall(args), hv::hcError);
    hv.setFaultPlan(nullptr);

    // The drop shows up twice: as a Fault-category instant AND as the
    // hypercall span ending with (hcError, faulted=1).
    const auto drops = eventsNamed(SpanCat::Fault, "fault_drop");
    ASSERT_EQ(drops.size(), 1u);
    EXPECT_EQ(drops[0].phase, TracePhase::Instant);

    const auto nops = eventsNamed(SpanCat::Hypercall, "hc_nop");
    ASSERT_EQ(nops.size(), 2u);
    EXPECT_EQ(nops[1].arg0, hv::hcError);
    EXPECT_EQ(nops[1].arg1, 1u);
}

TEST_F(TraceTest, SameWorkloadSameBytes)
{
    // Two fresh machines running the identical workload produce
    // byte-identical Chrome JSON — the property the CI fingerprint
    // job checks end to end via examples/quickstart.
    auto run = [] {
        Tracer tr(1u << 14);
        hv::Hypervisor machine(256 * MiB);
        machine.setTracer(&tr);
        ElisaService service(machine);
        hv::Vm &mgr_vm = machine.createVm("manager", 16 * MiB);
        hv::Vm &gst_vm = machine.createVm("guest", 16 * MiB);
        ElisaManager mgr(mgr_vm, service);
        ElisaGuest gst(gst_vm, service);
        SharedFnTable fns;
        fns.push_back([](SubCallCtx &) { return std::uint64_t{1}; });
        EXPECT_TRUE(mgr.exportObject(ExportKey("d"), 4 * KiB, std::move(fns)));
        Gate gate = gst.tryAttach(ExportKey("d"), mgr).take();
        for (int i = 0; i < 100; ++i)
            gate.call(0);
        gate.detach();
        return tr.chromeJson();
    };
    const std::string first = run();
    EXPECT_EQ(first, run());
    EXPECT_NE(first.find("\"cat\":\"gate\""), std::string::npos);
    EXPECT_NE(first.find("\"cat\":\"hypercall\""), std::string::npos);
    EXPECT_NE(first.find("\"cat\":\"negotiation\""), std::string::npos);
}

// ===================================================================
// Removed hooks record nothing: with the tracer and the ledger
// uninstalled, real gate calls emit no event and charge no row. The
// wall-clock cost of idle hooks is bench_telemetry's wired-vs-bare
// A/B, not a ctest assertion.
// ===================================================================

TEST_F(TraceTest, RemovedTracerAndLedgerRecordNothing)
{
    sim::ExitLedger ledger;
    hv.setLedger(&ledger);
    Gate gate = guest.tryAttach(ExportKey("obj"), manager).take();
    gate.call(0); // both hooks live
    ASSERT_GT(tracer.emitted(), 0u);
    ASSERT_GT(ledger.totalEvents(), 0u);

    hv.setTracer(nullptr);
    hv.setLedger(nullptr);
    const std::uint64_t events = tracer.emitted();
    const std::uint64_t charges = ledger.totalEvents();
    const std::uint64_t calls = guest.vcpu().stats().get("elisa_calls");
    for (int i = 0; i < 1000; ++i)
        gate.call(0);
    EXPECT_EQ(tracer.emitted(), events);
    EXPECT_EQ(ledger.totalEvents(), charges);
    EXPECT_EQ(guest.vcpu().stats().get("elisa_calls"), calls + 1000);
}

// ===================================================================
// Gate RAII + AttachResult contracts (the API-redesign satellites).
// ===================================================================

TEST_F(TraceTest, AttachResultCarriesEveryStatus)
{
    // Busy: a poll for a request id nobody issued.
    AttachResult busy = guest.pollAttach(12345);
    EXPECT_EQ(busy.status(), AttachStatus::Busy);
    EXPECT_FALSE(busy.ok());
    EXPECT_FALSE(busy);
    EXPECT_NE(busy.reason().find("re-request"), std::string::npos);

    // Pending, then Attached, through the request it tracks.
    auto req = guest.requestAttach(ExportKey("obj"));
    ASSERT_TRUE(req);
    AttachResult pending = guest.pollAttach(*req);
    EXPECT_EQ(pending.status(), AttachStatus::Pending);
    EXPECT_EQ(pending.request(), req);
    manager.pollRequests();
    AttachResult attached = guest.pollAttach(*req);
    EXPECT_EQ(attached.status(), AttachStatus::Attached);
    EXPECT_TRUE(attached.ok());
    EXPECT_EQ(std::string(attachStatusToString(attached.status())),
              "attached");

    // Denied: unknown export name.
    AttachResult denied = guest.tryAttach(ExportKey("no-such"), manager);
    EXPECT_EQ(denied.status(), AttachStatus::Denied);
    EXPECT_NE(denied.reason().find("no-such"), std::string::npos);

    // TimedOut: a request the manager never answers.
    auto stale = guest.requestAttach(ExportKey("obj"));
    ASSERT_TRUE(stale);
    guest.vcpu().clock().advance(hv.cost().negotiationTimeoutNs + 1);
    AttachResult late = guest.pollAttach(*stale);
    EXPECT_EQ(late.status(), AttachStatus::TimedOut);
}

TEST_F(TraceTest, GateAutoDetachesOnScopeExit)
{
    {
        AttachResult attached = guest.tryAttach(ExportKey("obj"), manager);
        ASSERT_TRUE(attached.ok());
        EXPECT_EQ(svc.attachmentCount(), 1u);
        Gate gate = attached.take();
        // take() empties the result; taking again is a panic, and the
        // result no longer claims success.
        EXPECT_FALSE(attached.ok());
        EXPECT_EQ(gate.call(0), 42u);
    } // RAII detach here
    EXPECT_EQ(svc.attachmentCount(), 0u);
}

TEST_F(TraceTest, ExplicitDetachThenDestructionIsIdempotent)
{
    Gate gate = guest.tryAttach(ExportKey("obj"), manager).take();
    EXPECT_TRUE(gate.valid());
    EXPECT_TRUE(gate.detach());
    EXPECT_FALSE(gate.valid());
    EXPECT_FALSE(gate.detach()); // second detach: a clean no-op
    EXPECT_EQ(svc.attachmentCount(), 0u);
    // Destruction after explicit detach must not double-issue the
    // Detach hypercall (the counter would show the replay).
    const auto detaches = hv.stats().get("elisa_idempotent_detaches");
    EXPECT_EQ(detaches, 0u);
}

TEST_F(TraceTest, MoveTransfersOwnershipExactlyOnce)
{
    Gate a = guest.tryAttach(ExportKey("obj"), manager).take();
    const AttachInfo info = a.info();

    Gate b = std::move(a);
    EXPECT_FALSE(a.valid()); // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(b.valid());
    EXPECT_EQ(b.info().attachment, info.attachment);
    EXPECT_EQ(b.call(0), 42u);

    // Move-assign over a live gate detaches the overwritten one.
    Gate c = guest.tryAttach(ExportKey("obj"), manager).take();
    EXPECT_EQ(svc.attachmentCount(), 2u);
    c = std::move(b);
    EXPECT_EQ(svc.attachmentCount(), 1u);
    EXPECT_EQ(c.call(0), 42u);
    EXPECT_EQ(svc.attachmentCount(), 1u);
} // c auto-detaches

TEST_F(TraceTest, GateDestructionAfterVmDeathIsSafe)
{
    hv::Vm &doomed = hv.createVm("doomed", 16 * MiB);
    {
        ElisaGuest dguest(doomed, svc);
        Gate gate = dguest.tryAttach(ExportKey("obj"), manager).take();
        EXPECT_EQ(svc.attachmentCount(), 1u);
        hv.destroyVm(doomed.id());
        // The VM (and its vCPUs) are gone; the Gate's destructor must
        // notice and not touch the dead vCPU.
        EXPECT_FALSE(gate.detach());
    }
    EXPECT_EQ(svc.attachmentCount(), 0u);
}

} // anonymous namespace
