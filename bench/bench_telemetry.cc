/**
 * @file
 * Experiment O1 — the telemetry plane's scrape cost: round-trip time
 * of one monitor scrape per access scheme (ELISA gate vs VMCALL
 * marshalling vs direct-mapped ivshmem), plus the wall-clock cost of
 * the hot gate path with the publisher wired but idle — the
 * "observability is free until you scrape" claim.
 *
 * The scrape RTTs are simulated time (deterministic, gated for
 * equality by tools/bench_check); the gate-path figure is host wall
 * clock and is recorded as a wall_ throughput metric so the gate is
 * one-sided.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench/common.hh"
#include "elisa/gate.hh"
#include "guest/monitor.hh"
#include "hv/ivshmem.hh"
#include "hv/telemetry_publisher.hh"
#include "sim/exit_ledger.hh"
#include "sim/metrics.hh"
#include "sim/telemetry.hh"
#include "sim/tracer.hh"

namespace
{

using namespace elisa;
using namespace elisa::bench;

using Layout = sim::TelemetryRegionLayout;

constexpr std::uint64_t scrapeIters = 5000;
constexpr std::uint64_t gateIters = 200000;

constexpr std::uint32_t slotBytes = 128 * KiB;
constexpr Gpa mirrorGpa = 0x5000000000ull;

/** Wall-clock ns/call of @p iters gate calls through @p gate. */
double
wallNsPerGateCall(core::Gate &gate, std::uint64_t iters)
{
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i)
        gate.call(0);
    const auto t1 = std::chrono::steady_clock::now();
    return (double)std::chrono::duration_cast<std::chrono::nanoseconds>(
               t1 - t0)
               .count() /
           (double)iters;
}

} // namespace

namespace elisa::bench
{

void
telemetry()
{
    Testbed bed;
    sim::Tracer tracer(4096);
    sim::ExitLedger ledger;
    bed.hv.setTracer(&tracer);
    bed.hv.setLedger(&ledger);

    // A worker guest generates gate and hypercall activity so the
    // published snapshots carry a realistic metric/ledger/trace load.
    hv::Vm &worker_vm = bed.addGuest("worker");
    core::ElisaGuest worker(worker_vm, bed.svc);
    core::SharedFnTable fns;
    fns.push_back([](core::SubCallCtx &) { return std::uint64_t{0}; });
    fatal_if(!bed.manager.exportObject(core::ExportKey("noop"), pageSize,
                                       std::move(fns)),
             "noop export failed");
    core::Gate gate =
        mustAttach(worker, core::ExportKey("noop"), bed.manager);

    // The telemetry plane: publisher, ELISA-exported region, monitor.
    sim::Metrics metrics;
    hv::TelemetryPublisher publisher(bed.hv, metrics);
    hv::Vm &monitor_vm = bed.addGuest("monitor");
    guest::MonitorGuest monitor(monitor_vm, bed.svc);
    fatal_if(!guest::exportTelemetryRegion(bed.manager, publisher,
                                           core::ExportKey("telemetry"),
                                           slotBytes),
             "telemetry region export failed");
    fatal_if(!monitor.attach(core::ExportKey("telemetry"), bed.manager),
             "monitor attach failed");

    // Baseline schemes: a direct-mapped ivshmem mirror of the region
    // and the VMCALL marshalling service.
    hv::IvshmemRegion mirror(bed.hv, "telemetry-mirror",
                             Layout::regionBytes(slotBytes));
    publisher.addSink(mirror.base(), mirror.size(), "mirror");
    fatal_if(!mirror.attach(monitor_vm, mirrorGpa, ept::Perms::Read),
             "mirror attach failed");
    const std::uint64_t scrapeNr = publisher.registerScrapeHypercall();
    fatal_if(scrapeNr == 0, "scrape hypercall registration failed");

    bed.hv.attachMetrics(metrics);

    cpu::Vcpu &wcpu = worker_vm.vcpu(0);
    for (int i = 0; i < 1000; ++i) {
        gate.call(0);
        wcpu.vmcall(hv::hcArgs(hv::Hc::Nop));
    }
    fatal_if(publisher.publish(wcpu.clock().now()) == 0,
             "first publication failed");
    const double snapBytes = (double)publisher.lastSnapshot().size();

    // Scrape RTT per scheme, on the monitor vCPU's simulated clock.
    // Every scrape re-reads the full active slot; re-publishing per
    // iteration would only move host-side state, not the guest cost.
    cpu::Vcpu &mcpu = monitor_vm.vcpu(0);

    const auto gateLegTotals = [&ledger]() {
        std::uint64_t events = 0;
        SimNs ns = 0;
        for (const auto &row : ledger.rows()) {
            if (row.kind == sim::CostKind::GateLeg) {
                events += row.events;
                ns += row.ns;
            }
        }
        return std::make_pair(events, ns);
    };

    fatal_if(!monitor.scrape(), "warm ELISA scrape failed");
    const auto [legEvents0, legNs0] = gateLegTotals();
    SimNs t0 = mcpu.clock().now();
    for (std::uint64_t i = 0; i < scrapeIters; ++i)
        fatal_if(!monitor.scrape(), "ELISA scrape failed");
    const double elisa_ns =
        (double)(mcpu.clock().now() - t0) / (double)scrapeIters;
    const auto [legEvents1, legNs1] = gateLegTotals();
    // A complete gate call charges one event per GateLeg value; only
    // the monitor makes gate calls during the loop above.
    const double gate_calls =
        (double)(legEvents1 - legEvents0) / (double)core::gateLegCount;
    const double per_call_ns =
        gate_calls == 0.0 ? 0.0
                          : (double)(legNs1 - legNs0) / gate_calls;
    const double calls_per_scrape = gate_calls / (double)scrapeIters;

    fatal_if(!monitor.scrapeVmcall(scrapeNr), "warm VMCALL scrape failed");
    t0 = mcpu.clock().now();
    for (std::uint64_t i = 0; i < scrapeIters; ++i)
        fatal_if(!monitor.scrapeVmcall(scrapeNr), "VMCALL scrape failed");
    const double vmcall_ns =
        (double)(mcpu.clock().now() - t0) / (double)scrapeIters;

    fatal_if(!monitor.scrapeIvshmem(mirrorGpa),
             "warm ivshmem scrape failed");
    t0 = mcpu.clock().now();
    for (std::uint64_t i = 0; i < scrapeIters; ++i)
        fatal_if(!monitor.scrapeIvshmem(mirrorGpa),
                 "ivshmem scrape failed");
    const double ivshmem_ns =
        (double)(mcpu.clock().now() - t0) / (double)scrapeIters;

    TextTable table;
    table.header({"Scheme", "Scrape RTT [ns]", "Isolated", "Exit-less"});
    table.row({"ELISA gate", detail::format("%.0f", elisa_ns), "yes",
               "yes"});
    table.row({"VMCALL marshalling", detail::format("%.0f", vmcall_ns),
               "yes", "no"});
    table.row({"ivshmem direct map", detail::format("%.0f", ivshmem_ns),
               "no", "yes"});
    std::printf("%s\n", table.render().c_str());
    std::printf("  snapshot size: %.0f bytes, %.1f gate calls per "
                "ELISA scrape\n\n",
                snapBytes, calls_per_scrape);
    saveCsv(table, "O1_telemetry_scrape");

    // The scrape decomposes into plain gate calls: their per-call RTT
    // must be the paper's headline figure.
    paperCheck("Gate RTT inside ELISA scrape", per_call_ns, 196.0, "ns");

    // The gate hot path with the publisher wired but idle: publication
    // is pull-based, so a quiescent telemetry plane must not tax the
    // 196 ns path. Compare against a bare machine that keeps the
    // tracer and ledger, so the delta is the telemetry plane's alone.
    Testbed bare;
    sim::Tracer bare_tracer(4096);
    sim::ExitLedger bare_ledger;
    bare.hv.setTracer(&bare_tracer);
    bare.hv.setLedger(&bare_ledger);
    hv::Vm &bare_vm = bare.addGuest("worker");
    core::ElisaGuest bare_guest(bare_vm, bare.svc);
    core::SharedFnTable bare_fns;
    bare_fns.push_back(
        [](core::SubCallCtx &) { return std::uint64_t{0}; });
    fatal_if(!bare.manager.exportObject(core::ExportKey("noop"), pageSize,
                                        std::move(bare_fns)),
             "bare export failed");
    core::Gate bare_gate =
        mustAttach(bare_guest, core::ExportKey("noop"), bare.manager);

    // Best of five rounds each, alternating wired and bare so host
    // drift (frequency, co-tenants) hits both sides alike.
    double wired_ns = 1e18;
    double bare_ns = 1e18;
    for (int round = 0; round < 5; ++round) {
        wired_ns = std::min(wired_ns, wallNsPerGateCall(gate, gateIters));
        bare_ns =
            std::min(bare_ns, wallNsPerGateCall(bare_gate, gateIters));
    }

    const double overhead_pct = (wired_ns - bare_ns) / bare_ns * 100.0;
    std::printf("  [telemetry-overhead] bare=%.1fns wired=%.1fns "
                "overhead=%.2f%%\n",
                bare_ns, wired_ns, overhead_pct);

    BenchReport report("telemetry");
    report.set("elisa_scrape_rtt_ns", elisa_ns);
    report.set("vmcall_scrape_rtt_ns", vmcall_ns);
    report.set("ivshmem_scrape_rtt_ns", ivshmem_ns);
    report.set("vmcall_over_elisa_ratio", vmcall_ns / elisa_ns);
    report.set("gate_calls_per_scrape", calls_per_scrape);
    report.set("snapshot_bytes", snapBytes);
    // Wall throughput (Mcalls/s) so the wall_ gate is one-sided in the
    // slower-is-bad direction.
    report.set("wall_gate_mops_telemetry", 1e3 / wired_ns);

    mirror.detach(monitor_vm, mirrorGpa);
}

} // namespace elisa::bench
