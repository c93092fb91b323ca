/**
 * @file
 * Host-side microbenchmarks (google-benchmark) of the simulator's hot
 * paths: not a paper experiment, but the performance budget that
 * makes the figure harnesses (millions of simulated packets/ops per
 * point) tractable.
 *
 * Besides the microbenches, this binary runs a hundreds-of-VMs
 * multi-machine *scale scenario* through the engine and reports its
 * simulated metrics and sim-time/wall-time ratio into
 * BENCH_sim_perf.json for the tools/bench_check regression gate
 * (wall_* metrics are gated one-sided with a generous tolerance —
 * wall clocks are noisy; the simulated metrics are exact).
 *
 *   bench_sim_perf [--vms=N] [google-benchmark flags]
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "base/units.hh"
#include "bench/common.hh"
#include "cpu/guest_view.hh"
#include "elisa/gate.hh"
#include "elisa/guest_api.hh"
#include "elisa/manager.hh"
#include "elisa/negotiation.hh"
#include "hv/hypervisor.hh"
#include "sim/engine.hh"

namespace
{

using namespace elisa;

/** Shared machine for all benchmarks (built once). */
struct Machine
{
    Machine()
        : hv(512 * MiB), svc(hv),
          managerVm(hv.createVm("manager", 64 * MiB)),
          guestVm(hv.createVm("guest", 64 * MiB)),
          manager(managerVm, svc), guest(guestVm, svc)
    {
        setQuiet(true);
        core::SharedFnTable fns;
        fns.push_back(
            [](core::SubCallCtx &) { return std::uint64_t{0}; });
        manager.exportObject(core::ExportKey("perf"), pageSize, std::move(fns));
        gate = guest.tryAttach(core::ExportKey("perf"), manager).take();
    }

    hv::Hypervisor hv;
    core::ElisaService svc;
    hv::Vm &managerVm;
    hv::Vm &guestVm;
    core::ElisaManager manager;
    core::ElisaGuest guest;
    core::Gate gate;
};

Machine &
machine()
{
    static Machine m;
    return m;
}

void
BM_EptHardwareWalk(benchmark::State &state)
{
    Machine &m = machine();
    const std::uint64_t eptp =
        m.guestVm.defaultEpt().eptp();
    for (auto _ : state) {
        auto t = ept::hardwareWalk(m.hv.memory(), eptp, 0x1000);
        benchmark::DoNotOptimize(t);
    }
}
BENCHMARK(BM_EptHardwareWalk);

void
BM_TlbHitAccess(benchmark::State &state)
{
    Machine &m = machine();
    cpu::GuestView view(m.guestVm.vcpu(0));
    view.read<std::uint64_t>(0x1000);
    for (auto _ : state) {
        auto v = view.read<std::uint64_t>(0x1000);
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_TlbHitAccess);

void
BM_GateCall(benchmark::State &state)
{
    Machine &m = machine();
    for (auto _ : state) {
        auto v = m.gate.call(0);
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_GateCall);

/**
 * The same gate call with a Tracer installed: every call emits 8
 * span events (gate_call + 4 eptp_switch + stack_swap + payload +
 * return begin/end pairs) into the ring. The delta vs BM_GateCall is
 * the enabled-tracing cost; the disabled cost is asserted <= 2% in
 * test_trace.
 */
void
BM_GateCallTraced(benchmark::State &state)
{
    Machine &m = machine();
    sim::Tracer tracer(1u << 16);
    m.hv.setTracer(&tracer);
    for (auto _ : state) {
        auto v = m.gate.call(0);
        benchmark::DoNotOptimize(v);
    }
    m.hv.setTracer(nullptr);
}
BENCHMARK(BM_GateCallTraced);

void
BM_Vmcall(benchmark::State &state)
{
    Machine &m = machine();
    cpu::Vcpu &cpu = m.guestVm.vcpu(0);
    for (auto _ : state) {
        auto v = cpu.vmcall(hv::hcArgs(hv::Hc::Nop));
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_Vmcall);

void
BM_GuestBulkCopy4K(benchmark::State &state)
{
    Machine &m = machine();
    cpu::GuestView view(m.guestVm.vcpu(0));
    std::vector<std::uint8_t> buf(4096, 0xab);
    for (auto _ : state) {
        view.writeBytes(0x10000, buf.data(), buf.size());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_GuestBulkCopy4K);

/** Raw 8-byte read/write pair on one hot page (the L0 fast path). */
void
BM_GuestReadWrite(benchmark::State &state)
{
    Machine &m = machine();
    cpu::GuestView view(m.guestVm.vcpu(0));
    view.write<std::uint64_t>(0x2000, 1);
    for (auto _ : state) {
        auto v = view.read<std::uint64_t>(0x2000);
        view.write<std::uint64_t>(0x2000, v + 1);
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_GuestReadWrite);

/**
 * Stride over more distinct pages than the direct-mapped Tlb has
 * slots, so every access misses both the L0 line and the shared Tlb
 * and pays the full simulated walk.
 */
void
BM_TlbMissAccess(benchmark::State &state)
{
    Machine &m = machine();
    cpu::GuestView view(m.guestVm.vcpu(0));
    // 2048 pages (8 MiB of the 64 MiB guest) > the 1024-entry Tlb.
    constexpr std::uint64_t pages = 2048;
    std::uint64_t page = 0;
    for (auto _ : state) {
        auto v = view.read<std::uint64_t>(0x100000 + page * pageSize);
        benchmark::DoNotOptimize(v);
        page = (page + 1) % pages;
    }
}
BENCHMARK(BM_TlbMissAccess);

/** Guest-to-guest 4 KiB copy (frame-to-frame, no bounce). */
void
BM_GuestCopyBytes4K(benchmark::State &state)
{
    Machine &m = machine();
    cpu::GuestView view(m.guestVm.vcpu(0));
    std::vector<std::uint8_t> buf(4096, 0xcd);
    view.writeBytes(0x20000, buf.data(), buf.size());
    for (auto _ : state) {
        view.copyBytes(0x30000, 0x20000, 4096);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_GuestCopyBytes4K);

/** Interned-id counter increment (the hot-path idiom). */
void
BM_StatIncInterned(benchmark::State &state)
{
    sim::StatSet stats;
    const sim::StatId id = stats.id("bench_counter");
    for (auto _ : state) {
        stats.inc(id);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_StatIncInterned);

/** String-keyed counter increment (the legacy slow path, for scale). */
void
BM_StatIncString(benchmark::State &state)
{
    sim::StatSet stats;
    stats.id("bench_counter");
    for (auto _ : state) {
        stats.inc("bench_counter");
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_StatIncString);

// ---- hundreds-of-VMs scale scenario --------------------------------

/**
 * One simulated machine of the scale scenario: a hypervisor hosting
 * single-vCPU guest VMs. Machines only interact through replication
 * pings.
 */
struct ScaleMachine
{
    explicit ScaleMachine(unsigned vms) : hv((vms * 2 + 32) * MiB)
    {
        setQuiet(true);
        for (unsigned v = 0; v < vms; ++v)
            hv.createVm("vm" + std::to_string(v), 2 * MiB);
    }

    hv::Hypervisor hv;
};

/**
 * Per-VM actor: every step is one VMCALL round trip on the VM's vCPU;
 * every 16th step additionally sends a replication ping to the next
 * machine, arriving one network propagation later.
 */
class VmWorker : public sim::Actor
{
  public:
    VmWorker(sim::Engine &engine, cpu::Vcpu &vcpu,
             std::uint64_t *peer_pings, std::uint64_t steps)
        : engine(engine), vcpu(vcpu), peerPings(peer_pings),
          total(steps)
    {
    }

    SimNs actorNow() const override { return vcpu.clock().now(); }

    bool
    step() override
    {
        const SimNs t = vcpu.clock().now();
        vcpu.vmcall(hv::hcArgs(hv::Hc::Nop));
        if (++count % 16 == 0) {
            engine.post(t + vcpu.costModel().netPropagationNs,
                        [this](SimNs) { ++*peerPings; });
        }
        return count < total;
    }

  private:
    sim::Engine &engine;
    cpu::Vcpu &vcpu;
    std::uint64_t *peerPings;
    std::uint64_t total;
    std::uint64_t count = 0;
};

/** Everything one scale run observes. */
struct ScaleResult
{
    std::uint64_t steps = 0;
    std::uint64_t delivered = 0;
    SimNs simNs = 0; ///< slowest vCPU's final clock
    double wallMs = 0.0;
};

ScaleResult
runScale(unsigned machine_count, unsigned vms_per,
         std::uint64_t steps_per)
{
    std::vector<std::unique_ptr<ScaleMachine>> machines;
    for (unsigned m = 0; m < machine_count; ++m)
        machines.push_back(std::make_unique<ScaleMachine>(vms_per));

    sim::Engine engine;
    std::vector<std::uint64_t> pings(machine_count, 0);
    std::vector<std::unique_ptr<VmWorker>> workers;
    for (unsigned m = 0; m < machine_count; ++m) {
        const unsigned peer = (m + 1) % machine_count;
        for (unsigned v = 0; v < vms_per; ++v) {
            workers.push_back(std::make_unique<VmWorker>(
                engine, machines[m]->hv.vm(v).vcpu(0), &pings[peer],
                steps_per));
            engine.add(workers.back().get());
        }
    }

    ScaleResult result;
    const auto wall0 = std::chrono::steady_clock::now();
    result.steps = engine.run();
    result.wallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall0)
            .count();
    result.delivered = engine.delivered();
    for (auto &machine : machines) {
        for (unsigned v = 0; v < vms_per; ++v) {
            const SimNs now =
                machine->hv.vm(v).vcpu(0).clock().now();
            if (now > result.simNs)
                result.simNs = now;
        }
    }
    return result;
}

void
runScaleScenario(unsigned vms)
{
    constexpr unsigned machine_count = 8;
    const unsigned vms_per =
        vms < machine_count ? 1 : vms / machine_count;
    // Multiple of 16 so the ping fraction is exact at any scale.
    const std::uint64_t steps_per =
        (bench::scaledCount(3200) / 16) * 16;
    const unsigned total_vms = vms_per * machine_count;

    std::printf("\nscale scenario: %u machines x %u VMs, %llu "
                "VMCALL-steps each\n",
                machine_count, vms_per,
                (unsigned long long)steps_per);

    const ScaleResult r = runScale(machine_count, vms_per, steps_per);

    const double ratio = (double)r.simNs / (r.wallMs * 1e6);
    std::printf("  %8.2f ms wall, sim/wall ratio %.3f\n", r.wallMs,
                ratio);
    std::printf("  %u VMs, %llu steps, %llu inter-machine pings "
                "delivered\n",
                total_vms, (unsigned long long)r.steps,
                (unsigned long long)r.delivered);

    bench::BenchReport report("sim_perf");
    // Simulated metrics: exact, gated two-sided by bench_check.
    report.set("scale_ns_per_op", (double)r.simNs / (double)steps_per);
    report.set("scale_events_per_kop",
               (double)r.delivered * 1000.0 / (double)r.steps);
    // Wall metric: noisy, gated one-sided (see --wall-tolerance).
    report.set("wall_sim_ratio_t1", ratio);
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned vms = 256;

    // Strip our flag; everything else goes to google-benchmark.
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--vms=", 6) == 0) {
            vms = (unsigned)std::strtoul(argv[i] + 6, nullptr, 10);
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    fatal_if(vms == 0, "--vms must be >= 1");

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    runScaleScenario(vms);
    benchmark::Shutdown();
    return 0;
}
