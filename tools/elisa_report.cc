/**
 * @file
 * elisa_report — the paper's accounting claims as one command.
 *
 * Modes (combinable; --ledger is the default when none given):
 *
 *   --ledger      Install a sim::ExitLedger, run the headline
 *                 workloads, and print the per-{vm, vcpu, kind, code}
 *                 cost table. Reproduces the two decompositions the
 *                 paper argues from:
 *                   - one gate round trip = six legs summing to
 *                     ~196 ns (4 VMFUNC switches + 2 gate-code
 *                     segments), each leg with its duration histogram;
 *                   - with HyperNF-class per-packet work, VM
 *                     exit/entry cycles consume ~49 % of the VMCALL
 *                     path's runtime — the ledger share, not a
 *                     throughput subtraction.
 *   --prometheus  Attach a sim::Metrics registry to the machine, run
 *                 the gate/VMCALL workload, and dump the Prometheus
 *                 text exposition.
 *   --csv [NS]    Run the KVS workload with a periodic simulated-time
 *                 sampler (default every 100000 ns) and print the
 *                 metrics time-series CSV.
 *   --scrape      Publish telemetry through hv::TelemetryPublisher,
 *                 scrape it from a monitor guest over all three
 *                 schemes (ELISA gate / VMCALL / ivshmem), and verify
 *                 each guest-side Prometheus re-export is
 *                 byte-identical to the host-side export. Exits
 *                 non-zero on any byte difference (the CI parity job).
 *   --postmortem  Kill a VM mid-workload via the fault plan and print
 *                 its flight-recorder post-mortem JSON, verifying the
 *                 ledger-delta conservation verdict.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "cpu/exit.hh"
#include "cpu/guest_view.hh"
#include "elisa/gate.hh"
#include "guest/monitor.hh"
#include "hv/ivshmem.hh"
#include "hv/paging.hh"
#include "hv/telemetry_publisher.hh"
#include "kvs/clients.hh"
#include "kvs/workload.hh"
#include "net/paths.hh"
#include "net/phys_nic.hh"
#include "net/workloads.hh"
#include "sim/exit_ledger.hh"
#include "sim/metrics.hh"

namespace
{

using namespace elisa;
using namespace elisa::bench;

/** Mean ns of one ledger row (0 when it never fired). */
double
meanNs(const sim::ExitLedger::Row &row)
{
    return row.events == 0 ? 0.0
                           : (double)row.ns / (double)row.events;
}

/**
 * The gate-vs-VMCALL decomposition: a no-op export called in a tight
 * loop with the ledger installed, then the per-leg table.
 */
void
ledgerGateSection()
{
    std::printf("--- ledger: gate round-trip decomposition ---------"
                "-----------\n");
    Testbed bed;
    sim::ExitLedger ledger;
    bed.hv.setLedger(&ledger);

    hv::Vm &vm = bed.addGuest("guest");
    core::ElisaGuest guest(vm, bed.svc);
    core::SharedFnTable fns;
    fns.push_back([](core::SubCallCtx &) { return std::uint64_t{0}; });
    auto exported = bed.manager.exportObject(core::ExportKey("noop"), pageSize,
                                             std::move(fns));
    fatal_if(!exported, "export failed");
    core::Gate gate = mustAttach(guest, core::ExportKey("noop"), bed.manager);
    cpu::Vcpu &cpu = guest.vcpu();

    constexpr std::uint64_t iterations = 100000;
    gate.call(0); // warm translation caches
    ledger.clear(); // drop setup-time negotiation hypercalls
    for (std::uint64_t i = 0; i < iterations; ++i)
        gate.call(0);
    for (std::uint64_t i = 0; i < iterations; ++i)
        cpu.vmcall(hv::hcArgs(hv::Hc::Nop));

    std::printf("%s\n", ledger.report().c_str());

    double gate_rtt = 0.0;
    for (const auto &row : ledger.rows()) {
        if (row.kind == sim::CostKind::GateLeg)
            gate_rtt += meanNs(row);
    }
    double vmcall_rtt = 0.0;
    for (const auto &row : ledger.rows()) {
        if (row.kind == sim::CostKind::Hypercall &&
            row.code == (std::uint32_t)hv::Hc::Nop) {
            vmcall_rtt = meanNs(row);
        }
    }
    paperCheck("gate legs sum (ledger)", gate_rtt, 196.0, "ns");
    paperCheck("VMCALL mechanism (ledger)", vmcall_rtt, 699.0, "ns");
}

/**
 * The HyperNF 49 % claim, derived from the ledger share: with heavy
 * per-packet NF work, (exit + hypercall mechanism ns) / elapsed of
 * the VMCALL RX run is the fraction of runtime the exits consumed —
 * and matches the throughput loss vs direct mapping.
 */
void
ledgerHypernfSection()
{
    std::printf("--- ledger: HyperNF exit-cost share ---------------"
                "-----------\n");
    sim::CostModel heavy;
    heavy.netPerPacketNs += 615; // NF chain processing per packet
    Testbed bed(1536 * MiB, heavy);
    sim::ExitLedger ledger;
    bed.hv.setLedger(&ledger);

    hv::Vm &vm = bed.addGuest("rx-heavy", 64 * MiB);
    net::DirectPath direct(bed.hv, vm);
    net::VmcallPath vmcall(bed.hv, vm);
    net::PhysNic nic(heavy);
    constexpr std::uint64_t packets = 60000;

    nic.reset();
    const auto r_direct = net::runRx(direct, nic, 64, packets);

    ledger.clear(); // count the VMCALL run only
    nic.reset();
    const auto r_vmcall = net::runRx(vmcall, nic, 64, packets);

    std::printf("%s\n", ledger.report().c_str());

    const SimNs mech =
        ledger.kindNs(sim::CostKind::Hypercall) +
        ledger.kindNs(sim::CostKind::Exit);
    const double share =
        r_vmcall.elapsed == 0
            ? 0.0
            : (double)mech / (double)r_vmcall.elapsed * 100.0;
    const double loss =
        (r_direct.mpps() - r_vmcall.mpps()) / r_direct.mpps() * 100.0;

    std::printf("  direct  %.2f Mpps, VMCALL %.2f Mpps over %llu "
                "packets\n",
                r_direct.mpps(), r_vmcall.mpps(),
                (unsigned long long)r_vmcall.packets);
    paperCheck("exit cycles / VMCALL runtime (ledger)", share, 49.0,
               "%");
    paperCheck("throughput loss vs direct", loss, 49.0, "%");
}

/**
 * The demand-paging decomposition: a shared object squeezed below its
 * working set, touched through the gate. Every non-resident touch is
 * an Exit/ept-violation row (the exit+entry mechanism, billed to the
 * faulting guest) plus a Page/page-in row (handler + swap device) —
 * and the kinds still partition the total.
 */
void
ledgerPagingSection()
{
    std::printf("--- ledger: demand-paging fault charging ----------"
                "-----------\n");
    Testbed bed;
    sim::ExitLedger ledger;
    bed.hv.setLedger(&ledger);
    hv::Pager &pager = bed.hv.enablePaging({0, 256});

    constexpr std::uint64_t objectBytes = 64 * KiB;
    constexpr std::uint64_t objectPages = objectBytes / pageSize;
    core::SharedFnTable fns;
    fns.push_back([](core::SubCallCtx &ctx) { // 0: read64
        return ctx.view.read<std::uint64_t>(ctx.obj + ctx.arg0);
    });
    auto exported = bed.manager.exportObject(core::ExportKey("obj"),
                                             objectBytes,
                                             std::move(fns));
    fatal_if(!exported, "export failed");
    pager.manageObject(bed.managerVm,
                       bed.managerVm.ramGpaToHpa(exported->objectGpa),
                       objectBytes, true);

    hv::Vm &vm = bed.addGuest("guest");
    core::ElisaGuest guest(vm, bed.svc);
    core::Gate gate = mustAttach(guest, core::ExportKey("obj"), bed.manager);

    // Warm all pages from the manager, then squeeze the residency so
    // most of the object sits on the swap device.
    pager.setResidentLimit(4);
    cpu::GuestView mview(bed.managerVm.vcpu(0));
    for (std::uint64_t page = 0; page < objectPages; ++page)
        mview.write<std::uint64_t>(exported->objectGpa +
                                       page * pageSize,
                                   0x900d0000 + page);

    ledger.clear(); // count the guest's faulting gate calls only
    for (std::uint64_t page = 0; page < objectPages; ++page) {
        const std::uint64_t got = gate.call(0, page * pageSize);
        fatal_if(got != 0x900d0000 + page, "paged read corrupted");
    }

    std::printf("%s\n", ledger.report().c_str());

    const sim::CostModel &model = bed.hv.cost();
    double exit_mean = 0.0;
    double pagein_mean = 0.0;
    for (const auto &row : ledger.rows()) {
        if (row.kind == sim::CostKind::Exit &&
            row.code ==
                (std::uint32_t)cpu::ExitReason::EptViolation) {
            exit_mean = meanNs(row);
        }
        if (row.kind == sim::CostKind::Page &&
            row.code == (std::uint32_t)sim::PageCost::PageIn)
            pagein_mean = meanNs(row);
    }
    paperCheck("EPT-violation exit mechanism (ledger)", exit_mean,
               (double)(model.vmexitNs + model.vmentryNs), "ns");
    paperCheck("page-in service (ledger)", pagein_mean,
               (double)(model.pageFaultHandleNs + model.swapInNs),
               "ns");

    SimNs kinds = 0;
    for (std::uint32_t k = 0; k < sim::costKindCount; ++k)
        kinds += ledger.kindNs((sim::CostKind)k);
    std::printf("  [check] cost kinds partition the total: %s\n",
                kinds == ledger.totalNs() ? "yes" : "NO — LEAK");
    fatal_if(kinds != ledger.totalNs(),
             "ledger kinds do not sum to total");
}

/** Gate/VMCALL workload with a Metrics registry; Prometheus dump. */
void
prometheusSection()
{
    Testbed bed;
    hv::Vm &vm = bed.addGuest("guest");
    core::ElisaGuest guest(vm, bed.svc);
    core::SharedFnTable fns;
    fns.push_back([](core::SubCallCtx &) { return std::uint64_t{0}; });
    auto exported = bed.manager.exportObject(core::ExportKey("noop"), pageSize,
                                             std::move(fns));
    fatal_if(!exported, "export failed");
    core::Gate gate = mustAttach(guest, core::ExportKey("noop"), bed.manager);
    cpu::Vcpu &cpu = guest.vcpu();

    constexpr std::uint64_t iterations = 10000;
    for (std::uint64_t i = 0; i < iterations; ++i)
        gate.call(0);
    for (std::uint64_t i = 0; i < iterations; ++i)
        cpu.vmcall(hv::hcArgs(hv::Hc::Nop));

    sim::Metrics metrics;
    bed.hv.attachMetrics(metrics);
    std::fputs(metrics.prometheus().c_str(), stdout);
}

/** KVS workload sampled on a simulated-time period; CSV dump. */
void
csvSection(SimNs period)
{
    Testbed bed(3 * GiB / 2);
    std::vector<hv::Vm *> vms;
    for (unsigned i = 0; i < 2; ++i)
        vms.push_back(&bed.addGuest("client" + std::to_string(i),
                                    16 * MiB));

    constexpr std::uint64_t buckets = 1 << 12;
    kvs::DirectKvsTable table(bed.hv, buckets);
    kvs::prepopulate(table.hostIo(), buckets);
    std::vector<std::unique_ptr<kvs::DirectKvsClient>> clients;
    std::vector<kvs::KvsClient *> ptrs;
    for (hv::Vm *vm : vms) {
        clients.push_back(
            std::make_unique<kvs::DirectKvsClient>(table, *vm));
        ptrs.push_back(clients.back().get());
    }

    sim::Metrics metrics;
    bed.hv.attachMetrics(metrics);
    sim::MetricsCsvSampler sampler(metrics);
    const auto r = kvs::runKvsWorkload(
        ptrs, kvs::Mix::Mixed9010, buckets, 20000, 42,
        period, [&](SimNs now) { sampler.sample(now); });
    fatal_if(r.corrupt || r.failed, "KVS workload misbehaved");
    std::fputs(sampler.csv().c_str(), stdout);
    std::fprintf(stderr, "elisa_report: %zu sample row(s) at %llu ns\n",
                 sampler.rows(), (unsigned long long)period);
}

/**
 * Telemetry-scrape parity: the monitor guest's re-export must equal
 * the host-side export byte-for-byte, over every access scheme.
 */
bool
scrapeSection()
{
    Testbed bed;
    sim::ExitLedger ledger;
    sim::Tracer tracer(4096);
    bed.hv.setLedger(&ledger);
    bed.hv.setTracer(&tracer);

    // A worked guest so the snapshot carries real counters, ledger
    // rows and spans.
    hv::Vm &vm = bed.addGuest("worker");
    core::ElisaGuest worker(vm, bed.svc);
    core::SharedFnTable fns;
    fns.push_back([](core::SubCallCtx &) { return std::uint64_t{0}; });
    auto exported = bed.manager.exportObject(core::ExportKey("noop"),
                                             pageSize, std::move(fns));
    fatal_if(!exported, "export failed");
    core::Gate noop =
        mustAttach(worker, core::ExportKey("noop"), bed.manager);

    hv::Vm &monVm = bed.addGuest("monitor");
    elisa::guest::MonitorGuest monitor(monVm, bed.svc);

    sim::Metrics metrics;
    hv::TelemetryPublisher publisher(bed.hv, metrics);

    // Sink 1: the ELISA shared object (exit-less scheme).
    constexpr std::uint32_t slotBytes = 192 * KiB;
    auto texp = elisa::guest::exportTelemetryRegion(
        bed.manager, publisher, core::ExportKey("telemetry"),
        slotBytes);
    fatal_if(!texp, "telemetry export failed");
    fatal_if(!monitor.attach(core::ExportKey("telemetry"), bed.manager),
             "monitor attach failed");

    // Sink 2: the direct-mapped ivshmem mirror.
    hv::IvshmemRegion mirror(
        bed.hv, "telemetry-mirror",
        sim::TelemetryRegionLayout::regionBytes(slotBytes));
    publisher.addSink(mirror.base(), mirror.size(), "ivshmem");
    constexpr Gpa mirrorGpa = 0x5000000000ull;
    fatal_if(!mirror.attach(monVm, mirrorGpa, ept::Perms::Read),
             "ivshmem attach failed");

    // Scheme 3: the VMCALL marshalling service.
    const std::uint64_t scrapeNr = publisher.registerScrapeHypercall();

    bed.hv.attachMetrics(metrics);

    constexpr std::uint64_t iterations = 20000;
    cpu::Vcpu &cpu = worker.vcpu();
    for (std::uint64_t i = 0; i < iterations; ++i)
        noop.call(0);
    for (std::uint64_t i = 0; i < iterations; ++i)
        cpu.vmcall(hv::hcArgs(hv::Hc::Nop));

    // Freeze host truth immediately before the publish that snapshots
    // the same state; the scrapes below mutate vCPU counters and must
    // not be visible in this comparison.
    const std::string host = metrics.prometheus();
    publisher.publish(cpu.clock().now());

    bool all_same = true;
    const auto check = [&](const char *scheme, bool scraped) {
        fatal_if(!scraped, "%s scrape failed", scheme);
        const std::string re = monitor.prometheus();
        const bool same = re == host;
        all_same = all_same && same;
        std::printf("  [scrape] %-8s seq=%llu %6zu bytes re-exported, "
                    "byte-identical: %s\n",
                    scheme,
                    (unsigned long long)monitor.snapshot().seq(),
                    re.size(), same ? "yes" : "NO");
    };
    check("elisa", monitor.scrape());
    check("vmcall", monitor.scrapeVmcall(scrapeNr));
    check("ivshmem", monitor.scrapeIvshmem(mirrorGpa));

    std::printf("  [scrape] host export %zu bytes, retries %llu, "
                "failures %llu\n",
                host.size(), (unsigned long long)monitor.retries(),
                (unsigned long long)monitor.failures());
    std::printf("[scrape] byte-identical across all schemes: %s\n",
                all_same ? "yes" : "NO");
    mirror.detach(monVm, mirrorGpa);
    return all_same;
}

/**
 * Flight-recorder walkthrough: kill a VM mid-workload through the
 * fault plan, print its post-mortem, and verify conservation.
 */
bool
postmortemSection()
{
    Testbed bed;
    sim::Tracer tracer(8192);
    sim::ExitLedger ledger;
    sim::FlightRecorder recorder(128);
    bed.hv.setTracer(&tracer);
    bed.hv.setLedger(&ledger);
    bed.hv.setFlightRecorder(&recorder);

    hv::Vm &victimVm = bed.addGuest("victim");
    hv::Vm &workerVm = bed.addGuest("worker");
    core::ElisaGuest victim(victimVm, bed.svc);
    core::ElisaGuest worker(workerVm, bed.svc);
    core::SharedFnTable fns;
    fns.push_back([](core::SubCallCtx &) { return std::uint64_t{0}; });
    auto exported = bed.manager.exportObject(core::ExportKey("noop"),
                                             pageSize, std::move(fns));
    fatal_if(!exported, "export failed");
    core::Gate vgate =
        mustAttach(victim, core::ExportKey("noop"), bed.manager);
    core::Gate wgate =
        mustAttach(worker, core::ExportKey("noop"), bed.manager);

    // The 40th Nop from the worker kills the victim (third-party
    // kill: teardown — and the post-mortem dump — happen right away).
    const VmId id = victimVm.id();
    sim::FaultPlan plan(7);
    sim::FaultRule rule;
    rule.site = (std::uint64_t)sim::FaultSite::Hypercall;
    rule.hcNr = (std::uint64_t)hv::Hc::Nop;
    rule.vm = workerVm.id();
    rule.occurrence = 40;
    rule.action = sim::FaultAction::KillVm;
    rule.param = id;
    plan.addRule(rule);
    bed.hv.setFaultPlan(&plan);

    for (unsigned i = 0; i < 64; ++i) {
        // The victim VM (and the vCPU behind its gate) vanishes
        // mid-loop; touch it only while it still exists.
        if (bed.hv.hasVm(id)) {
            vgate.call(0);
            victim.vcpu().vmcall(hv::hcArgs(hv::Hc::Nop));
        }
        wgate.call(0);
        worker.vcpu().vmcall(hv::hcArgs(hv::Hc::Nop));
    }
    fatal_if(bed.hv.hasVm(id), "victim survived the plan");
    fatal_if(!recorder.hasPostMortem(id), "no post-mortem dumped");
    std::fputs(recorder.postMortem(id).c_str(), stdout);
    const bool conserved = recorder.postMortemConserved(id);
    std::printf("[postmortem] vm %u spans=%zu dropped=%llu "
                "conserved: %s\n",
                id, recorder.heldFor(id),
                (unsigned long long)recorder.droppedFor(id),
                conserved ? "yes" : "NO");
    return conserved;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    bool do_ledger = false;
    bool do_prometheus = false;
    bool do_csv = false;
    bool do_scrape = false;
    bool do_postmortem = false;
    SimNs csv_period = 100000;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--ledger") {
            do_ledger = true;
        } else if (arg == "--prometheus") {
            do_prometheus = true;
        } else if (arg == "--csv") {
            do_csv = true;
            if (i + 1 < argc && argv[i + 1][0] != '-') {
                csv_period = std::strtoull(argv[++i], nullptr, 10);
                if (csv_period == 0) {
                    std::fprintf(stderr,
                                 "elisa_report: bad --csv period\n");
                    return 2;
                }
            }
        } else if (arg == "--scrape") {
            do_scrape = true;
        } else if (arg == "--postmortem") {
            do_postmortem = true;
        } else {
            std::fprintf(stderr,
                         "usage: elisa_report [--ledger] "
                         "[--prometheus] [--csv [PERIOD_NS]] "
                         "[--scrape] [--postmortem]\n");
            return 2;
        }
    }
    if (!do_ledger && !do_prometheus && !do_csv && !do_scrape &&
        !do_postmortem)
        do_ledger = true;

    if (do_ledger) {
        ledgerGateSection();
        ledgerHypernfSection();
        ledgerPagingSection();
    }
    if (do_prometheus)
        prometheusSection();
    if (do_csv)
        csvSection(csv_period);
    if (do_scrape && !scrapeSection())
        return 1;
    if (do_postmortem && !postmortemSection())
        return 1;
    return 0;
}
