/**
 * @file
 * Scenario S1 — the engine at scale: 8 simulated machines × 32
 * single-vCPU VMs, every VM a VMCALL loop that pings the next machine
 * every 16th step. Not a paper figure: it reports the simulated
 * per-op cost and event rate (exact) and the host's sim-time/wall-time
 * ratio (the one-sided wall_ metric) into BENCH_sim_perf.json.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/common.hh"
#include "sim/engine.hh"

namespace
{

using namespace elisa;

constexpr unsigned machineCount = 8;
constexpr unsigned vmsPerMachine = 32;
/** A multiple of 16, so the ping fraction is exact. */
constexpr std::uint64_t stepsPerVm = 3200;

/**
 * One simulated machine of the scale scenario: a hypervisor hosting
 * single-vCPU guest VMs. Machines only interact through replication
 * pings.
 */
struct ScaleMachine
{
    explicit ScaleMachine(unsigned vms) : hv((vms * 2 + 32) * MiB)
    {
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

} // namespace

namespace elisa::bench
{

void
engineScale()
{
    std::vector<std::unique_ptr<ScaleMachine>> machines;
    for (unsigned m = 0; m < machineCount; ++m)
        machines.push_back(std::make_unique<ScaleMachine>(vmsPerMachine));

    sim::Engine engine;
    std::vector<std::uint64_t> pings(machineCount, 0);
    std::vector<std::unique_ptr<VmWorker>> workers;
    for (unsigned m = 0; m < machineCount; ++m) {
        const unsigned peer = (m + 1) % machineCount;
        for (unsigned v = 0; v < vmsPerMachine; ++v) {
            workers.push_back(std::make_unique<VmWorker>(
                engine, machines[m]->hv.vm(v).vcpu(0), &pings[peer],
                stepsPerVm));
            engine.add(workers.back().get());
        }
    }

    std::printf("scale scenario: %u machines x %u VMs, %llu "
                "VMCALL-steps each\n",
                machineCount, vmsPerMachine,
                (unsigned long long)stepsPerVm);

    const auto wall0 = std::chrono::steady_clock::now();
    const std::uint64_t steps = engine.run();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall0)
            .count();
    SimNs sim_ns = 0; // the slowest vCPU's final clock
    for (auto &machine : machines) {
        for (unsigned v = 0; v < vmsPerMachine; ++v)
            sim_ns = std::max(sim_ns,
                              machine->hv.vm(v).vcpu(0).clock().now());
    }

    const double ratio = (double)sim_ns / (wall_ms * 1e6);
    std::printf("  %8.2f ms wall, sim/wall ratio %.3f\n", wall_ms,
                ratio);
    std::printf("  %u VMs, %llu steps, %llu inter-machine pings "
                "delivered\n",
                machineCount * vmsPerMachine, (unsigned long long)steps,
                (unsigned long long)engine.delivered());

    BenchReport report("sim_perf");
    // Simulated metrics: exact, gated for equality by bench_check.
    report.set("scale_ns_per_op", (double)sim_ns / (double)stepsPerVm);
    report.set("scale_events_per_kop",
               (double)engine.delivered() * 1000.0 / (double)steps);
    // Wall metric: noisy, gated one-sided.
    report.set("wall_sim_ratio_t1", ratio);
}

} // namespace elisa::bench
