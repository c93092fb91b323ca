/**
 * @file
 * The benchmark's workloads and what they share: the machine they
 * build, the counters and simulated-time digest read from it, and the
 * optional tracing context of the traced run.
 *
 * A workload does a fixed amount of simulated work per slice, and a
 * slice runs every scheme of the workload, so a burst of host
 * interference cannot land on one scheme only. Slice @p i's work
 * depends only on the seed and i, so a run's simulated outcome depends
 * only on workload, seed and slice count.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/units.hh"
#include "elisa/guest_api.hh"
#include "elisa/manager.hh"
#include "elisa/negotiation.hh"
#include "hv/hypervisor.hh"
#include "stats.hh"

namespace perfbench
{

/** Counters the program keeps, summed over every VM of a machine. */
struct Counters
{
    // Per vCPU.
    std::uint64_t l0Hit = 0;
    std::uint64_t tlbHit = 0;
    std::uint64_t tlbMiss = 0;
    std::uint64_t eptWalk = 0;
    std::uint64_t vmfunc = 0;
    std::uint64_t vmcall = 0;
    // Per machine.
    std::uint64_t hypercalls = 0;
    std::uint64_t pagerFaults = 0;
    std::uint64_t swapIns = 0;
    std::uint64_t swapOuts = 0;
    std::uint64_t zeroFills = 0;

    Counters operator-(const Counters &base) const;
    Counters &operator+=(const Counters &other);

    /** Every field, in declaration order (digest input). */
    std::vector<std::uint64_t> fields() const;
};

/** FNV-1a over 64-bit words: the run's simulated-time digest. */
class Digest
{
  public:
    void
    add(std::uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            state ^= (word >> (8 * i)) & 0xff;
            state *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return state; }

  private:
    std::uint64_t state = 0xcbf29ce484222325ull;
};

/** Span names of the public calls the workloads make. */
struct Names
{
    explicit Names(SpanRecorder &rec);

    SpanName machineBuild, createVm, destroyVm;
    SpanName exportObject, tryAttach, gateCall, gateDetach;
    SpanName vmcall, prepopulate, runKvsWorkload, runVm2Vm;
};

/** Tracing context of the traced run (absent in untraced runs). */
struct Trace
{
    SpanRecorder rec;
    Names names{rec};
    SpanStats stats;
};

/** A span around one call; a no-op without a trace. */
inline SpanScope
span(Trace *tr, SpanName Names::*which)
{
    return tr ? SpanScope(&tr->rec, tr->names.*which)
              : SpanScope(nullptr, 0);
}

/** One reported value with its unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * A machine as the figure benches build it: hypervisor, ELISA service
 * and a 128 MiB manager VM. VMs are created and destroyed through it,
 * so spans wrap those calls and destroyed VMs' counters and final
 * clocks stay in the totals.
 */
class Bed
{
  public:
    Bed(std::uint64_t phys_bytes, Trace *trace);

    Bed(const Bed &) = delete;
    Bed &operator=(const Bed &) = delete;

    elisa::hv::Vm &createVm(const std::string &name, std::uint64_t ram);
    void destroyVm(elisa::hv::Vm &vm);

    /** Counter totals over every VM ever created on this machine. */
    Counters counters();

    /** Fold the clocks of live vCPUs and of destroyed ones. */
    void digest(Digest &d);

    elisa::hv::Hypervisor &hv() { return *hyper; }
    elisa::core::ElisaService &svc() { return *service; }
    elisa::hv::Vm &managerVm() { return *mgrVm; }
    elisa::core::ElisaManager &manager() { return *mgr; }

  private:
    Counters vmCounters(elisa::hv::Vm &vm);

    Trace *tr;
    std::unique_ptr<elisa::hv::Hypervisor> hyper;
    std::unique_ptr<elisa::core::ElisaService> service;
    elisa::hv::Vm *mgrVm = nullptr;
    std::unique_ptr<elisa::core::ElisaManager> mgr;
    std::vector<elisa::VmId> live;
    Counters retired;
    Digest retiredClocks;
};

/** One workload instance, set up and ready for its first slice. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Run slice @p index; returns the operations it did. */
    virtual std::uint64_t runSlice(std::uint64_t index) = 0;

    /** The machine (counters and clocks). */
    virtual Bed &bed() = 0;

    /** Fold the workload's own outcome into the digest. */
    void digest(Digest &d) const { d.add(outcome.value()); }

    /** Workload-specific per-layer metrics of the traced run. */
    virtual void layerMetrics(std::vector<Metric> &) {}

    /** Operations whose functional check failed. */
    std::uint64_t failed = 0;

  protected:
    /** Outcome values (op results, simulated elapsed times). */
    Digest outcome;
};

/** Static description of one workload. */
struct WorkloadSpec
{
    const char *name;
    /** Unmeasured slices run as part of set-up. */
    unsigned warmupSlices;
    /** Measured slices per second of requested run length. */
    unsigned slicesPerSecond;
    std::unique_ptr<Workload> (*make)(std::uint64_t seed, Trace *trace);
};

/** Every workload, in the order BENCHMARK.json lists them. */
const std::vector<WorkloadSpec> &workloads();

/** Seed of slice @p index under run seed @p seed. */
std::uint64_t sliceSeed(std::uint64_t seed, std::uint64_t index);

std::unique_ptr<Workload> makeKvsMix(std::uint64_t seed, Trace *trace);
std::unique_ptr<Workload> makeVmChurn(std::uint64_t seed, Trace *trace);
std::unique_ptr<Workload> makeNetVm2Vm(std::uint64_t seed, Trace *trace);
std::unique_ptr<Workload> makePagedObject(std::uint64_t seed,
                                          Trace *trace);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
