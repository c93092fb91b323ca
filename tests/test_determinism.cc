/**
 * @file
 * Determinism regression: the same KVS + network workload, run twice
 * in one process, must produce bit-identical simulated clocks, counter
 * dumps, and latency histograms.
 *
 * This is the guard rail for host-side performance work: the L0
 * translation micro-cache, interned counters, and batched time
 * charging may change how fast the simulator runs, never what it
 * computes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/units.hh"
#include "cpu/guest_view.hh"
#include "elisa/gate.hh"
#include "elisa/guest_api.hh"
#include "elisa/manager.hh"
#include "elisa/negotiation.hh"
#include "hv/hypervisor.hh"
#include "hv/paging.hh"
#include "kvs/clients.hh"
#include "kvs/cluster.hh"
#include "kvs/workload.hh"
#include "net/paths.hh"
#include "sim/engine.hh"
#include "sim/fault.hh"
#include "sim/histogram.hh"
#include "guest/monitor.hh"
#include "hv/telemetry_publisher.hh"
#include "sim/exit_ledger.hh"
#include "sim/flight_recorder.hh"
#include "sim/metrics.hh"
#include "sim/telemetry.hh"
#include "sim/tracer.hh"

namespace
{

using namespace elisa;

/**
 * Build a machine, run a mixed KVS + network workload through the
 * ELISA paths, and render everything observable into one string.
 */
std::string
runScenario()
{
    setQuiet(true);

    hv::Hypervisor hv(256 * MiB);
    core::ElisaService svc(hv);
    hv::Vm &manager_vm = hv.createVm("manager", 32 * MiB);
    hv::Vm &client_vm = hv.createVm("client", 32 * MiB);
    core::ElisaManager manager(manager_vm, svc);
    core::ElisaGuest guest(client_vm, svc);

    // ---- KVS workload over a gate-called table ----------------------
    constexpr std::uint64_t key_space = 512;
    kvs::ElisaKvsTable table(hv, manager, "kvs", 4096);
    kvs::prepopulate(table.hostIo(), key_space);
    kvs::ElisaKvsClient kvs_client(table, manager, guest);
    std::vector<kvs::KvsClient *> clients{&kvs_client};
    const kvs::KvsRunResult kvs_result = kvs::runKvsWorkload(
        clients, kvs::Mix::Mixed9010, key_space,
        /*ops_per_client=*/1500);
    EXPECT_EQ(kvs_result.corrupt, 0u);
    EXPECT_EQ(kvs_result.failed, 0u);

    // ---- network echo loop over an ELISA path -----------------------
    net::ElisaPath path(hv, manager, guest, "net");
    sim::Histogram tx_rtt;
    SimNs wire = path.vcpu().clock().now();
    for (std::uint32_t i = 0; i < 300; ++i) {
        const std::uint32_t len = 64 + (i * 37) % 1400;
        const SimNs t0 = path.vcpu().clock().now();
        const SimNs handoff = path.guestTx(i, len);
        tx_rtt.record(path.vcpu().clock().now() - t0);
        auto [pkt, ready] = path.hostCollectTx(handoff);
        EXPECT_EQ(pkt.seq, i);
        wire = std::max(wire, ready) + 100;
        path.hostDeliverRx(i, len, wire);
        auto [seq, rx_len] = path.guestRx();
        EXPECT_EQ(seq, i);
        EXPECT_EQ(rx_len, len);
    }

    // ---- fingerprint ------------------------------------------------
    std::ostringstream out;
    out << std::setprecision(17);
    out << "manager_clock=" << manager_vm.vcpu(0).clock().now() << '\n'
        << "client_clock=" << client_vm.vcpu(0).clock().now() << '\n'
        << "kvs_ops=" << kvs_result.ops << '\n'
        << "kvs_hits=" << kvs_result.hits << '\n'
        << "kvs_mops=" << kvs_result.totalMops << '\n'
        << "rtt_count=" << tx_rtt.count() << '\n'
        << "rtt_mean=" << tx_rtt.mean() << '\n'
        << "rtt_min=" << tx_rtt.min() << '\n'
        << "rtt_max=" << tx_rtt.max() << '\n'
        << "rtt_p50=" << tx_rtt.percentile(0.5) << '\n'
        << "rtt_p99=" << tx_rtt.percentile(0.99) << '\n'
        << "rtt_summary=" << tx_rtt.summary() << '\n';
    // Every counter of the machine (hv + both vCPUs' StatSets) through
    // the Metrics registry's byte-deterministic Prometheus exposition:
    // the fingerprint now also guards the exporter itself.
    sim::Metrics metrics;
    hv.attachMetrics(metrics);
    out << "prometheus:\n" << metrics.prometheus();
    return out.str();
}

TEST(Determinism, KvsAndNetWorkloadIsBitIdenticalAcrossRuns)
{
    const std::string first = runScenario();
    const std::string second = runScenario();
    EXPECT_EQ(first, second);

    // Sanity: the fingerprint actually observed simulated progress.
    EXPECT_NE(first.find("kvs_ops=1500"), std::string::npos);
    EXPECT_NE(first.find("rtt_count=300"), std::string::npos);
}

/**
 * One self-contained machine: hypervisor, manager VM + client VM and
 * a gate-called KVS table.
 */
struct KvsMachine
{
    hv::Hypervisor hv{128 * MiB};
    core::ElisaService svc{hv};
    hv::Vm &manager_vm;
    hv::Vm &client_vm;
    core::ElisaManager manager;
    core::ElisaGuest guest;
    kvs::ElisaKvsTable table;
    kvs::ElisaKvsClient client;

    explicit KvsMachine(std::uint64_t key_space)
        : manager_vm(hv.createVm("manager", 16 * MiB)),
          client_vm(hv.createVm("client", 16 * MiB)),
          manager(manager_vm, svc), guest(client_vm, svc),
          table(hv, manager, "kvs", 4096),
          client(table, manager, guest)
    {
        kvs::prepopulate(table.hostIo(), key_space);
    }
};

/**
 * The same KVS workload spread over three machines on one engine,
 * with a periodic engine sampler, rendered into one string.
 */
std::string
runMultiMachineKvsScenario()
{
    setQuiet(true);

    constexpr std::uint64_t key_space = 256;
    std::vector<std::unique_ptr<KvsMachine>> machines;
    std::vector<kvs::KvsClient *> clients;
    for (unsigned m = 0; m < 3; ++m) {
        machines.push_back(std::make_unique<KvsMachine>(key_space));
        clients.push_back(&machines.back()->client);
    }

    std::vector<SimNs> samples;
    const kvs::KvsRunResult result = kvs::runKvsWorkload(
        clients, kvs::Mix::Mixed9010, key_space,
        /*ops_per_client=*/800, /*seed=*/0x51a2d,
        /*sample_period=*/50'000,
        [&](SimNs t) { samples.push_back(t); });
    EXPECT_EQ(result.corrupt, 0u);
    EXPECT_EQ(result.failed, 0u);

    std::ostringstream out;
    out << std::setprecision(17);
    out << "ops=" << result.ops << '\n'
        << "hits=" << result.hits << '\n'
        << "mops=" << result.totalMops << '\n';
    for (std::size_t i = 0; i < result.perClientMops.size(); ++i)
        out << "client" << i << "_mops=" << result.perClientMops[i]
            << '\n';
    out << "samples=";
    for (SimNs t : samples)
        out << t << ',';
    out << '\n';
    for (unsigned m = 0; m < machines.size(); ++m) {
        KvsMachine &machine = *machines[m];
        out << "machine" << m << "_clock="
            << machine.client_vm.vcpu(0).clock().now() << '\n';
        sim::Metrics metrics;
        machine.hv.attachMetrics(metrics);
        out << "machine" << m << "_prometheus:\n"
            << metrics.prometheus();
    }
    return out.str();
}

TEST(Determinism, MultiMachineKvsFingerprintIsBitIdenticalAcrossRuns)
{
    // Every exporter byte — sampler series, per-client throughput,
    // per-machine clocks and counters — is a pure function of the
    // workload.
    const std::string first = runMultiMachineKvsScenario();
    EXPECT_EQ(first, runMultiMachineKvsScenario());

    // Sanity: the fingerprint observed all three machines making
    // progress, and the sampler actually sampled.
    EXPECT_NE(first.find("ops=2400"), std::string::npos);
    EXPECT_NE(first.find("machine2_clock="), std::string::npos);
    EXPECT_EQ(first.find("samples=\n"), std::string::npos);
}

/**
 * The sharded KVS cluster — three server machines behind a consistent-
 * hash ring, zipfian open-loop clients, one store VM killed mid-run by
 * a FaultPlan — rendered into one string: load counters, latency
 * summary, per-server store fingerprints, failover bookkeeping, and
 * clocks.
 */
std::string
runClusterScenario()
{
    setQuiet(true);

    kvs::ClusterConfig cfg;
    cfg.servers = 3;
    cfg.scheme = kvs::ClusterScheme::Elisa;
    cfg.buckets = 512;
    cfg.logSlots = 8192;
    kvs::KvsCluster cluster(cfg);

    constexpr std::uint64_t key_space = 700;
    cluster.prepopulate(key_space);

    // Kill server 1's primary store VM at its 5th protocol step: the
    // failover (replica log replay + standby re-seed) must itself be
    // bit-reproducible.
    sim::FaultPlan plan;
    plan.killVmAt(cluster.stepNr(1), cluster.primaryVmId(1),
                  /*occurrence=*/5);
    cluster.setFaultPlan(1, &plan);
    const kvs::ClusterLoadResult r = cluster.runLoad(
        /*clients_per_server=*/2, /*offered_rps_per_client=*/45e3,
        /*requests_per_client=*/200, /*put_ratio=*/0.4, key_space,
        /*zipf_s=*/0.99, /*seed=*/0xc105);
    cluster.setFaultPlan(1, nullptr);
    EXPECT_EQ(r.corrupt, 0u);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_EQ(plan.injectedCount(), 1u);
    EXPECT_GE(cluster.failovers(1), 1u);

    std::ostringstream out;
    out << std::setprecision(17);
    out << "ops=" << r.ops << '\n'
        << "hits=" << r.hits << '\n'
        << "acked=" << r.acked << '\n'
        << "remote=" << r.remote << '\n'
        << "achieved=" << r.achievedRps << '\n'
        << "latency=" << r.latency.summary() << '\n';
    out << "acked_ids=";
    for (const std::uint64_t id : r.ackedPutIds)
        out << id << ',';
    out << '\n';
    for (unsigned s = 0; s < cluster.serverCount(); ++s) {
        out << "server" << s << "_clock="
            << cluster.serverVcpu(s).clock().now() << '\n'
            << "server" << s << "_fp=" << cluster.fingerprintOf(s)
            << '\n'
            << "server" << s << "_live=" << cluster.liveEntriesOf(s)
            << '\n'
            << "server" << s << "_failovers=" << cluster.failovers(s)
            << '\n';
    }
    out << "dying_fp=" << cluster.lastDyingFingerprint(1) << '\n'
        << "promoted_fp=" << cluster.lastPromotedFingerprint(1) << '\n'
        << "fault_log:\n"
        << plan.eventLog();
    return out.str();
}

TEST(Determinism, ClusterWithKillIsBitIdenticalAcrossRuns)
{
    const std::string first = runClusterScenario();
    EXPECT_EQ(first, runClusterScenario());

    // Sanity: the scenario made progress and actually failed over.
    EXPECT_NE(first.find("ops=1200"), std::string::npos);
    EXPECT_NE(first.find("server1_failovers="), std::string::npos);
    EXPECT_EQ(first.find("server1_failovers=0"), std::string::npos);
}

/**
 * One self-contained delegation machine: a manager exporting one
 * object, a delegator guest holding the root
 * capability, and a delegatee guest. Each step() runs one full
 * capability round — delegate a narrowed window, redeem it, exercise
 * the gate, then end the grant through a different teardown path
 * (revoke, RAII detach, or lazy expiry) — so the fingerprint covers
 * the whole grant lifecycle, including the teardown-order guarantees.
 */
struct DelegationMachine : sim::Actor
{
    hv::Hypervisor hv{96 * MiB};
    core::ElisaService svc{hv};
    hv::Vm &manager_vm;
    hv::Vm &a_vm;
    hv::Vm &b_vm;
    core::ElisaManager manager;
    core::ElisaGuest a;
    core::ElisaGuest b;
    core::Gate rootGate;
    core::Capability rootCap;
    unsigned round = 0;
    unsigned rounds;
    unsigned completed = 0;

    explicit DelegationMachine(unsigned round_count)
        : manager_vm(hv.createVm("manager", 16 * MiB)),
          a_vm(hv.createVm("delegator", 16 * MiB)),
          b_vm(hv.createVm("delegatee", 16 * MiB)),
          manager(manager_vm, svc), a(a_vm, svc), b(b_vm, svc),
          rounds(round_count)
    {
        core::SharedFnTable fns;
        fns.push_back([](core::SubCallCtx &ctx) {
            return ctx.view.read<std::uint64_t>(ctx.obj + ctx.arg0);
        });
        fns.push_back([](core::SubCallCtx &ctx) {
            ctx.view.write<std::uint64_t>(ctx.obj + ctx.arg0,
                                          ctx.arg1);
            return std::uint64_t{0};
        });
        auto exp = manager.exportObject(core::ExportKey("deleg"),
                                        16 * KiB, std::move(fns));
        EXPECT_TRUE(exp);
        core::AttachResult attached =
            a.tryAttach(core::ExportKey("deleg"), manager);
        EXPECT_TRUE(attached.ok());
        rootCap = attached.capability();
        rootGate = attached.take();
    }

    SimNs actorNow() const override
    {
        return a_vm.vcpu(0).clock().now();
    }

    bool step() override
    {
        const unsigned r = round++;

        // Narrow a rotating page window; every third round read-only,
        // every fourth round with an expiry bound.
        core::Capability::DelegateSpec spec;
        spec.offset = (r % 4) * 4 * KiB;
        spec.bytes = 4 * KiB;
        if (r % 3 == 1)
            spec.perms = ept::Perms::Read;
        const bool expiring = r % 4 == 2;
        if (expiring) {
            spec.expiresNs =
                std::max(a_vm.vcpu(0).clock().now(),
                         b_vm.vcpu(0).clock().now()) +
                1'000'000;
        }
        auto child = rootCap.delegate(b_vm.id(), spec);
        EXPECT_TRUE(child);
        if (!child)
            return false;

        core::AttachResult redeemed = b.redeem(*child);
        EXPECT_TRUE(redeemed.ok());
        if (!redeemed.ok())
            return false;
        core::Gate gate = redeemed.take();
        for (unsigned i = 0; i <= r % 3; ++i)
            gate.call(0, 8 * i);
        if (ept::permits(redeemed.capability().perms(),
                         ept::Perms::RW)) {
            gate.call(1, 0, r);
        }

        if (expiring) {
            // Lazy expiry: the next entry past the lapse faults.
            b_vm.vcpu(0).clock().advance(2'000'000);
            auto result = b_vm.run(0, [&] { gate.call(0, 0); });
            EXPECT_FALSE(result.ok);
        } else if (r % 2 == 0) {
            EXPECT_TRUE(redeemed.capability().revoke());
        }
        // Otherwise the gate's RAII detach ends the grant here.
        ++completed;
        return round < rounds;
    }
};

/**
 * Three delegation machines on one engine, rendered into one string:
 * per-machine clocks, the service dump (grant tree included), and
 * every counter through the Prometheus exposition.
 */
std::string
runDelegationScenario()
{
    setQuiet(true);

    std::vector<std::unique_ptr<DelegationMachine>> machines;
    sim::Engine engine;
    for (unsigned m = 0; m < 3; ++m) {
        machines.push_back(
            std::make_unique<DelegationMachine>(24 + 4 * m));
        engine.add(machines.back().get());
    }
    engine.run();

    std::ostringstream out;
    out << std::setprecision(17);
    for (unsigned m = 0; m < machines.size(); ++m) {
        DelegationMachine &machine = *machines[m];
        out << "machine" << m << "_rounds=" << machine.completed
            << '\n'
            << "machine" << m << "_a_clock="
            << machine.a_vm.vcpu(0).clock().now() << '\n'
            << "machine" << m << "_b_clock="
            << machine.b_vm.vcpu(0).clock().now() << '\n'
            << "machine" << m << "_grants=" << machine.svc.grantCount()
            << '\n'
            << "machine" << m << "_delegations="
            << machine.hv.stats().get("elisa_delegations") << '\n'
            << "machine" << m << "_expiries="
            << machine.hv.stats().get("elisa_cap_expiries") << '\n'
            << "machine" << m << "_revokes="
            << machine.hv.stats().get("elisa_cap_revokes") << '\n'
            << "machine" << m << "_dump:\n"
            << machine.svc.dumpState();
        sim::Metrics metrics;
        machine.hv.attachMetrics(metrics);
        out << "machine" << m << "_prometheus:\n"
            << metrics.prometheus();
    }
    return out.str();
}

TEST(Determinism, DelegationLifecycleIsBitIdenticalAcrossRuns)
{
    // The capability layer joins the determinism gate: the full grant
    // lifecycle — delegation, redemption, gate traffic, revocation,
    // RAII detach, lazy expiry — must fingerprint identically.
    const std::string first = runDelegationScenario();
    EXPECT_EQ(first, runDelegationScenario());

    // Sanity: all machines finished every round, every teardown path
    // ran, and only the root grants survive.
    EXPECT_NE(first.find("machine0_rounds=24"), std::string::npos);
    EXPECT_NE(first.find("machine2_rounds=32"), std::string::npos);
    EXPECT_NE(first.find("machine0_delegations=24"),
              std::string::npos);
    EXPECT_NE(first.find("machine0_expiries=6"), std::string::npos);
    EXPECT_NE(first.find("machine0_grants=1"), std::string::npos);
    EXPECT_EQ(first.find("_revokes=0"), std::string::npos);
}

/**
 * A faulty negotiation workload under a seeded FaultPlan, rendered
 * into one string: the plan's event log (every injected fault, in
 * order) plus clocks and counters.
 */
std::string
runFaultScenario(std::uint64_t seed)
{
    setQuiet(true);

    hv::Hypervisor hv(256 * MiB);
    core::ElisaService svc(hv);
    hv::Vm &manager_vm = hv.createVm("manager", 16 * MiB);
    hv::Vm &client_vm = hv.createVm("client", 16 * MiB);
    core::ElisaManager manager(manager_vm, svc);
    core::ElisaGuest guest(client_vm, svc);

    sim::FaultPlan plan(seed);
    plan.setDropChance(0.10);
    plan.setDelayChance(0.10, 2000);
    plan.setDuplicateChance(0.05);
    hv.setFaultPlan(&plan);

    core::SharedFnTable fns;
    fns.push_back([](core::SubCallCtx &) { return std::uint64_t{7}; });
    auto exp = manager.exportObject(core::ExportKey("chaos"), 4 * KiB, std::move(fns));
    EXPECT_TRUE(exp);

    // Repeated attach/call/detach cycles; every hypercall rolls the
    // same seeded dice, so the whole trajectory — which attaches are
    // dropped, delayed, or duplicated — replays from the seed.
    unsigned attached = 0;
    for (unsigned round = 0; round < 40; ++round) {
        auto result = guest.attachWithRetry(
            core::ExportKey("chaos"), [&] { manager.pollRequests(); });
        if (!result)
            continue;
        ++attached;
        core::Gate gate = result.take();
        client_vm.run(0, [&] { gate.call(0); });
        gate.detach();
    }

    std::ostringstream out;
    out << "attached=" << attached << '\n'
        << "injected=" << plan.injectedCount() << '\n'
        << "fault_log:\n" << plan.eventLog()
        << "manager_clock=" << manager_vm.vcpu(0).clock().now() << '\n'
        << "client_clock=" << client_vm.vcpu(0).clock().now() << '\n';
    sim::Metrics metrics;
    hv.attachMetrics(metrics);
    out << "prometheus:\n" << metrics.prometheus();
    return out.str();
}

TEST(Determinism, FaultSeedReplaysBitIdentically)
{
    const std::string first = runFaultScenario(0xe115a);
    const std::string second = runFaultScenario(0xe115a);
    EXPECT_EQ(first, second);

    // The chaos knobs actually fired, and a different seed yields a
    // different fault trajectory.
    EXPECT_EQ(first.find("injected=0\n"), std::string::npos);
    EXPECT_NE(first, runFaultScenario(0x5eed));
}

// ---------------------------------------------------------------------
// Demand paging on one engine: three overcommitted machines thrash
// their swap devices; the fingerprint — clocks, pager counters,
// occupancy series — must replay bit for bit.
// ---------------------------------------------------------------------

/** One machine whose shared object is paged under a resident budget. */
struct PagedMachine
{
    static constexpr std::uint64_t objectBytes = 64 * KiB;
    static constexpr std::uint64_t objectPages = objectBytes / pageSize;

    hv::Hypervisor hv{128 * MiB};
    hv::Pager &pager;
    core::ElisaService svc{hv};
    hv::Vm &manager_vm;
    hv::Vm &client_vm;
    core::ElisaManager manager;
    core::ElisaGuest guest;
    std::optional<core::Gate> gate;
    unsigned index;

    explicit PagedMachine(unsigned machine_index)
        : pager(hv.enablePaging({4, 256})),
          manager_vm(hv.createVm("manager", 16 * MiB)),
          client_vm(hv.createVm("client", 16 * MiB)),
          manager(manager_vm, svc), guest(client_vm, svc),
          index(machine_index)
    {
        core::SharedFnTable fns;
        fns.push_back([](core::SubCallCtx &ctx) { // 0: read64
            return ctx.view.read<std::uint64_t>(ctx.obj + ctx.arg0);
        });
        fns.push_back([](core::SubCallCtx &ctx) { // 1: write64
            ctx.view.write<std::uint64_t>(ctx.obj + ctx.arg0,
                                          ctx.arg1);
            return std::uint64_t{0};
        });
        auto exp = manager.exportObject(core::ExportKey("obj"),
                                        objectBytes, std::move(fns));
        panic_if(!exp, "paged-machine export failed");
        pager.manageObject(manager_vm,
                           manager_vm.ramGpaToHpa(exp->objectGpa),
                           objectBytes, true);
        gate = guest
                   .tryAttach(core::ExportKey("obj"), manager)
                   .intoOptional();
        panic_if(!gate, "paged-machine attach failed");
    }
};

/** Client actor: gate calls striding over the overcommitted object. */
struct PagedClientActor : sim::Actor
{
    PagedClientActor(PagedMachine &machine_, unsigned total_ops)
        : machine(machine_), total(total_ops)
    {
    }

    SimNs
    actorNow() const override
    {
        return machine.client_vm.vcpu(0).clock().now();
    }

    bool
    step() override
    {
        // A stride walk that revisits pages: with 16 pages against a
        // 4-frame budget every lap swaps, and writes interleave reads.
        const std::uint64_t page =
            (ops * 7 + machine.index) % PagedMachine::objectPages;
        const std::uint64_t off = page * pageSize;
        if (ops % 3 == 1) {
            machine.gate->call(1, off, ops);
        } else {
            (void)machine.gate->call(0, off);
        }
        return ++ops < total;
    }

    PagedMachine &machine;
    unsigned ops = 0;
    unsigned total;
};

std::string
runPagedScenario()
{
    setQuiet(true);

    std::vector<std::unique_ptr<PagedMachine>> machines;
    std::vector<std::unique_ptr<PagedClientActor>> actors;
    sim::Engine engine;
    for (unsigned m = 0; m < 3; ++m) {
        machines.push_back(std::make_unique<PagedMachine>(m));
        actors.push_back(std::make_unique<PagedClientActor>(
            *machines.back(), 400));
        engine.add(actors.back().get());
    }

    // The manager's occupancy, sampled periodically.
    std::ostringstream series;
    engine.setSampler(100'000, [&](SimNs t) {
        series << t << ':';
        for (unsigned m = 0; m < 3; ++m) {
            PagedMachine &machine = *machines[m];
            const auto *usage = machine.hv.allocator().ownerUsage(
                machine.manager_vm.id());
            series << usage->residentFrames << '/'
                   << usage->swappedFrames << ' ';
        }
        series << '\n';
    });
    engine.run();

    std::ostringstream out;
    out << "samples:\n" << series.str();
    for (unsigned m = 0; m < 3; ++m) {
        PagedMachine &machine = *machines[m];
        out << "machine" << m << "_clock="
            << machine.client_vm.vcpu(0).clock().now() << '\n'
            << "machine" << m << "_faults="
            << machine.hv.stats().get("pager_faults") << '\n'
            << "machine" << m << "_in="
            << machine.hv.stats().get("pager_pages_swapped_in") << '\n'
            << "machine" << m << "_out="
            << machine.hv.stats().get("pager_pages_swapped_out")
            << '\n'
            << "machine" << m << "_resident="
            << machine.pager.residentFrames() << '\n'
            << "machine" << m << "_exits="
            << machine.hv.stats().get("exit_ept-violation") << '\n';
    }
    return out.str();
}

TEST(Determinism, PagedMachinesFingerprintIsBitIdenticalAcrossRuns)
{
    const std::string first = runPagedScenario();
    EXPECT_EQ(first, runPagedScenario());

    // Sanity: the overcommit actually thrashed on every machine, and
    // the sampler observed the occupancy moving.
    for (unsigned m = 0; m < 3; ++m) {
        const std::string key =
            "machine" + std::to_string(m) + "_out=";
        const auto at = first.find(key);
        ASSERT_NE(at, std::string::npos);
        EXPECT_NE(first.substr(at + key.size(), 2), "0\n");
    }
    EXPECT_NE(first.find(':'), std::string::npos);
}

// ---------------------------------------------------------------------
// The telemetry plane on one engine: publisher snapshot bytes, the
// monitor's scrape stream (Prometheus + CSV re-exports) and the
// flight-recorder post-mortem of a fault-killed VM must all replay
// byte-identically.
// ---------------------------------------------------------------------

/** One machine with a worked guest, a doomed guest and a monitor. */
struct TelemetryMachine
{
    // Declared first so it outlives the gates, whose destructors still
    // make (fault-plan-checked) detach hypercalls.
    sim::FaultPlan plan;
    hv::Hypervisor hv{256 * MiB};
    sim::Tracer tracer{4096};
    sim::ExitLedger ledger;
    sim::FlightRecorder recorder{64};
    core::ElisaService svc{hv};
    hv::Vm &manager_vm;
    hv::Vm &victim_vm;
    hv::Vm &worker_vm;
    hv::Vm &monitor_vm;
    core::ElisaManager manager;
    core::ElisaGuest victim;
    core::ElisaGuest worker;
    elisa::guest::MonitorGuest monitor;
    sim::StatSet backlog;
    sim::Metrics metrics;
    hv::TelemetryPublisher publisher{hv, metrics};
    std::optional<core::Gate> vgate;
    std::optional<core::Gate> wgate;
    sim::StatId depth = 0;
    VmId victimId = invalidVmId;

    TelemetryMachine()
        : manager_vm(hv.createVm("manager", 64 * MiB)),
          victim_vm(hv.createVm("victim", 16 * MiB)),
          worker_vm(hv.createVm("worker", 16 * MiB)),
          monitor_vm(hv.createVm("monitor", 16 * MiB)),
          manager(manager_vm, svc), victim(victim_vm, svc),
          worker(worker_vm, svc), monitor(monitor_vm, svc)
    {
        hv.setTracer(&tracer);
        hv.setLedger(&ledger);
        hv.setFlightRecorder(&recorder);

        core::SharedFnTable fns;
        fns.push_back(
            [](core::SubCallCtx &) { return std::uint64_t{0}; });
        panic_if(!manager.exportObject(core::ExportKey("noop"),
                                       pageSize, std::move(fns)),
                 "telemetry-machine export failed");
        vgate = victim.tryAttach(core::ExportKey("noop"), manager)
                    .intoOptional();
        wgate = worker.tryAttach(core::ExportKey("noop"), manager)
                    .intoOptional();
        panic_if(!vgate || !wgate, "telemetry-machine attach failed");

        panic_if(!elisa::guest::exportTelemetryRegion(
                     manager, publisher, core::ExportKey("telemetry"),
                     128 * KiB),
                 "telemetry region export failed");
        panic_if(!monitor.attach(core::ExportKey("telemetry"),
                                 manager),
                 "monitor attach failed");

        depth = backlog.id("backlog_depth");
        metrics.attachStatSet(backlog, {});
        hv.attachMetrics(metrics);

        // The worker's 40th Nop takes the victim down (third-party
        // kill: immediate destroy, post-mortem dumped on the spot).
        victimId = victim_vm.id();
        sim::FaultRule rule;
        rule.site =
            static_cast<std::uint64_t>(sim::FaultSite::Hypercall);
        rule.hcNr = static_cast<std::uint64_t>(hv::Hc::Nop);
        rule.vm = worker_vm.id();
        rule.occurrence = 40;
        rule.action = sim::FaultAction::KillVm;
        rule.param = victimId;
        plan.addRule(rule);
        hv.setFaultPlan(&plan);
    }

    std::string
    fingerprint() const
    {
        const auto &snap = publisher.lastSnapshot();
        std::ostringstream out;
        out << "pubs=" << publisher.publications()
            << " overflows=" << publisher.overflows()
            << " snap_bytes=" << snap.size() << " snap_fnv="
            << sim::telemetryChecksum(snap.data(), snap.size())
            << " scrapes=" << monitor.scrapes() << " fresh="
            << monitor.newSnapshots() << " retries="
            << monitor.retries() << '\n'
            << "prometheus:\n"
            << monitor.prometheus() << "csv:\n"
            << monitor.csvDocument() << "postmortem:\n"
            << (recorder.hasPostMortem(victimId)
                    ? recorder.postMortem(victimId)
                    : std::string("none"))
            << '\n';
        return out.str();
    }
};

/** Drives gates + hypercalls, publishing and scraping on a cadence. */
struct TelemetryActor : sim::Actor
{
    TelemetryActor(TelemetryMachine &machine_, unsigned total_ops)
        : machine(machine_), total(total_ops)
    {
    }

    SimNs
    actorNow() const override
    {
        return machine.worker_vm.vcpu(0).clock().now();
    }

    bool
    step() override
    {
        TelemetryMachine &m = machine;
        if (m.hv.hasVm(m.victimId)) {
            m.vgate->call(0);
            m.victim_vm.vcpu(0).vmcall(hv::hcArgs(hv::Hc::Nop));
        }
        m.wgate->call(0);
        m.worker_vm.vcpu(0).vmcall(hv::hcArgs(hv::Hc::Nop));
        // A counter bumped every step, so each publication carries a
        // new value.
        m.backlog.inc(m.depth);
        if (ops % 16 == 15) {
            m.publisher.publish(actorNow());
            m.monitor.scrape();
        }
        return ++ops < total;
    }

    TelemetryMachine &machine;
    unsigned ops = 0;
    unsigned total;
};

std::string
runTelemetryScenario()
{
    setQuiet(true);

    std::vector<std::unique_ptr<TelemetryMachine>> machines;
    std::vector<std::unique_ptr<TelemetryActor>> actors;
    sim::Engine engine;
    for (unsigned m = 0; m < 2; ++m) {
        machines.push_back(std::make_unique<TelemetryMachine>());
        actors.push_back(std::make_unique<TelemetryActor>(
            *machines.back(), 400));
        engine.add(actors.back().get());
    }
    engine.run();

    std::ostringstream out;
    for (unsigned m = 0; m < 2; ++m)
        out << "== machine " << m << " ==\n"
            << machines[m]->fingerprint();
    return out.str();
}

TEST(Determinism, TelemetryPlaneIsBitIdenticalAcrossRuns)
{
    const std::string first = runTelemetryScenario();
    EXPECT_EQ(first, runTelemetryScenario());

    // Sanity: the scenario exercised the whole plane — publications
    // carrying the backlog counter were scraped, and the killed VM
    // left a post-mortem.
    EXPECT_NE(first.find("# TYPE backlog_depth counter"),
              std::string::npos);
    EXPECT_NE(first.find("fault_kill@hypercall"), std::string::npos);
    EXPECT_EQ(first.find("postmortem:\nnone"), std::string::npos);
    EXPECT_NE(first.find("telemetry_published"), std::string::npos);
}

} // namespace
