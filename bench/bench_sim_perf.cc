/**
 * @file
 * Host-side microbenchmarks (google-benchmark) of the simulator's hot
 * paths: not a paper experiment, but the performance budget that
 * makes the figure harnesses (millions of simulated packets/ops per
 * point) tractable. The engine scale scenario is `elisa_bench S1`.
 *
 *   bench_sim_perf [google-benchmark flags]
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "base/logging.hh"
#include "base/units.hh"
#include "cpu/guest_view.hh"
#include "elisa/gate.hh"
#include "elisa/guest_api.hh"
#include "elisa/manager.hh"
#include "elisa/negotiation.hh"
#include "hv/hypervisor.hh"
#include "sim/tracer.hh"

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
 * the enabled-tracing cost. With no tracer the call takes the
 * untraced instantiation, which test_trace checks structurally
 * (TraceTest.RemovedTracerAndLedgerRecordNothing); the wall-clock
 * check of idle hooks is `elisa_bench O1`'s wall_gate_mops_telemetry.
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

} // namespace

BENCHMARK_MAIN();
