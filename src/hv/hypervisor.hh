/**
 * @file
 * The hypervisor: machine resources, VM lifecycle, hypercall dispatch,
 * EPTP-list management and INVEPT.
 */

#ifndef ELISA_HV_HYPERVISOR_HH
#define ELISA_HV_HYPERVISOR_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/types.hh"
#include "cpu/exit.hh"
#include "cpu/vcpu.hh"
#include "hv/grant_table.hh"
#include "hv/hypercall.hh"
#include "hv/paging.hh"
#include "hv/vm.hh"
#include "mem/frame_allocator.hh"
#include "mem/host_memory.hh"
#include "sim/cost_model.hh"
#include "sim/exit_ledger.hh"
#include "sim/fault.hh"
#include "sim/flight_recorder.hh"
#include "sim/stats.hh"
#include "sim/tracer.hh"

namespace elisa::sim
{
class Metrics;
} // namespace elisa::sim

namespace elisa::hv
{

/**
 * The machine + hypervisor. Owns physical memory, the frame allocator,
 * the cost model, and every VM.
 */
class Hypervisor : public cpu::HypercallSink, public cpu::EptFaultSink
{
  public:
    /**
     * @param phys_mem_bytes machine physical memory size.
     * @param cost timing parameters (copied).
     */
    explicit Hypervisor(std::uint64_t phys_mem_bytes,
                        const sim::CostModel &cost = sim::CostModel{});

    ~Hypervisor() override;

    // ---- machine resources ----------------------------------------
    mem::HostMemory &memory() { return physMem; }
    mem::FrameAllocator &allocator() { return frames; }
    const sim::CostModel &cost() const { return costModel; }
    sim::StatSet &stats() { return statSet; }

    /** Interned id of the per-reason "exit_*" counter (fault path). */
    sim::StatId
    exitStatId(cpu::ExitReason reason) const
    {
        return exitIds[static_cast<unsigned>(reason)];
    }

    // ---- VM lifecycle ----------------------------------------------
    /** Create a VM; the hypervisor keeps ownership. */
    Vm &createVm(const std::string &name, std::uint64_t ram_bytes,
                 unsigned vcpu_count = 1);

    /** Look up a VM by id (panics on bad id). */
    Vm &vm(VmId id);

    /** True when VM @p id exists (services probe before touching). */
    bool hasVm(VmId id) const { return vms.contains(id); }

    /** Destroy a VM, releasing its RAM, EPT contexts and vCPUs.
     *  Registered destroy hooks run first (while the VM still
     *  exists), letting services revoke state tied to it. */
    void destroyVm(VmId id);

    /** Callback invoked at the start of destroyVm(). */
    using VmDestroyHook = std::function<void(VmId)>;

    /** Register a VM-teardown observer (services use this). */
    void addVmDestroyHook(VmDestroyHook hook);

    /** Number of live VMs. */
    std::size_t vmCount() const { return vms.size(); }

    // ---- demand paging ---------------------------------------------
    /**
     * Turn on demand paging: creates the machine Pager and registers
     * its VM-teardown hook. Call once, before putting any memory under
     * management and before building attachments whose windows should
     * fault (pre-existing attachments are not retro-managed). With
     * paging never enabled every translation behaves exactly as
     * before — the only added work is one pointer test on the
     * EPT-violation path.
     */
    Pager &enablePaging(const PagingConfig &config = {});

    /** The machine pager, or nullptr when paging is not enabled. */
    Pager *pager() { return pagerPtr.get(); }

    /** cpu::EptFaultSink: forward an EPT violation to the pager. */
    bool resolveEptViolation(
        cpu::Vcpu &vcpu, const ept::EptViolation &violation) override;

    // ---- capability grants -----------------------------------------
    /**
     * The machine-wide grant table: the tree shape of every live
     * capability grant. Sharing services (ELISA) mint nodes here and
     * key their own payload by the returned CapId; teardown order is
     * always derived from this table (see grant_table.hh).
     */
    GrantTable &grants() { return grantTable; }
    const GrantTable &grants() const { return grantTable; }

    // ---- fault injection -------------------------------------------
    /**
     * Install (or with nullptr remove) a fault plan. Non-owning: the
     * plan must outlive its installation. With no plan installed the
     * hooked paths cost one pointer test and nothing else.
     */
    void setFaultPlan(sim::FaultPlan *plan) { faults = plan; }

    /** The installed fault plan, or nullptr. */
    sim::FaultPlan *faultPlan() const { return faults; }

    // ---- tracing ---------------------------------------------------
    /**
     * Install (or with nullptr remove) a trace collector. Non-owning,
     * same contract as setFaultPlan: the tracer must outlive its
     * installation, and with none installed every trace point is one
     * pointer test. Propagates to every existing and future vCPU.
     */
    void setTracer(sim::Tracer *tracer);

    /** The installed tracer, or nullptr. */
    sim::Tracer *tracer() const { return tracerPtr; }

    // ---- exit-cost ledger ------------------------------------------
    /**
     * Install (or with nullptr remove) the exit-cost ledger. Same
     * contract as setTracer: non-owning, propagated to every existing
     * and future vCPU, one pointer test per charge point when absent.
     * Registers display names for every exit reason and every named
     * hypercall so ExitLedger::report() renders symbolically.
     */
    void setLedger(sim::ExitLedger *ledger);

    /** The installed ledger, or nullptr. */
    sim::ExitLedger *ledger() const { return ledgerPtr; }

    // ---- flight recorder -------------------------------------------
    /**
     * Install (or with nullptr remove) the per-VM flight recorder.
     * Non-owning, same contract as setTracer. The hypervisor installs
     * its track resolver (vCPU track → owning VM, remembered across VM
     * death), baselines it against the installed ledger, and on every
     * destroyVm() drains the tracer one final time and freezes the
     * dying VM's post-mortem before teardown hooks run. Install after
     * setLedger()/setTracer() for a full-history baseline.
     */
    void setFlightRecorder(sim::FlightRecorder *recorder);

    /** The installed flight recorder, or nullptr. */
    sim::FlightRecorder *flightRecorder() const { return recorderPtr; }

    /**
     * Attach this machine's StatSets to @p metrics as labeled counter
     * families: the hypervisor set as {layer="hv"} with prefix "hv_",
     * every vCPU set as {vm, vcpu} with prefix "vcpu_". Call after the
     * VMs of interest exist (attachment is by StatSet, and Metrics
     * holds non-owning pointers — re-call after creating more VMs).
     * destroyVm() detaches the dying VM's vCPU sets automatically, so
     * killing a VM mid-flight leaves the registry safe to collect.
     */
    void attachMetrics(sim::Metrics &metrics);

    /**
     * Give hypercall @p nr a human-readable span name (services call
     * this next to registerHypercall). Unnamed hypercalls trace as
     * "hc_0x<nr>".
     */
    void setHypercallName(std::uint64_t nr, std::string name);

    /** Convenience overload for the Hc enum. */
    void
    setHypercallName(Hc nr, std::string name)
    {
        setHypercallName(static_cast<std::uint64_t>(nr),
                         std::move(name));
    }

    /**
     * Destroy VMs whose injected death happened inside their own
     * hypercall (the teardown is deferred past the unwinding guest
     * frames). Runs automatically at the next hypercall dispatch;
     * tests may call it directly.
     * @param except VM id to leave alone (a VM whose frames are still
     *        live on the stack); invalidVmId reaps everything.
     * @return number of VMs reaped.
     */
    unsigned reapKilledVms(VmId except = invalidVmId);

    // ---- hypercalls --------------------------------------------------
    /**
     * Register @p handler for hypercall @p nr; replaces any previous
     * registration (tests use that to interpose).
     */
    void registerHypercall(std::uint64_t nr, HypercallHandler handler);

    /** Convenience overload for the Hc enum. */
    void
    registerHypercall(Hc nr, HypercallHandler handler)
    {
        registerHypercall(static_cast<std::uint64_t>(nr),
                          std::move(handler));
    }

    /** cpu::HypercallSink: dispatch a VMCALL exit. */
    std::uint64_t handleHypercall(cpu::Vcpu &vcpu,
                                  const cpu::HypercallArgs &args) override;

    /**
     * Hand out a fresh hypercall number in the service range, for
     * host-interposition services that register per-instance handlers.
     */
    std::uint64_t
    allocServiceNr()
    {
        return nextServiceNr++;
    }

    // ---- EPTP-list management (the ELISA enabler) --------------------
    /**
     * Install @p eptp into @p vcpu's EPTP list.
     * @return the chosen index, or nullopt when the list is full.
     */
    std::optional<EptpIndex> installEptp(cpu::Vcpu &vcpu,
                                         std::uint64_t eptp);

    /**
     * Remove entry @p index from @p vcpu's list and flush its cached
     * translations (INVEPT single-context).
     */
    void removeEptp(cpu::Vcpu &vcpu, EptpIndex index);

    /** INVEPT single-context across every vCPU of every VM. */
    void inveptAll(std::uint64_t eptp);

    /** INVEPT global across every vCPU. */
    void inveptGlobal();

  private:
    /** Install the Nop/GetVmId base handlers. */
    void registerBaseHypercalls();

    sim::CostModel costModel;
    mem::HostMemory physMem;
    mem::FrameAllocator frames;
    sim::StatSet statSet;
    GrantTable grantTable;
    std::map<VmId, std::unique_ptr<Vm>> vms;
    VmId nextVmId = 0;
    VcpuId nextVcpuId = 0;
    std::map<std::uint64_t, HypercallHandler> hypercalls;
    std::uint64_t nextServiceNr =
        static_cast<std::uint64_t>(Hc::ServiceBase);
    std::vector<VmDestroyHook> destroyHooks;

    /** Installed fault plan (nullptr = fault injection off). */
    sim::FaultPlan *faults = nullptr;

    /** Installed tracer (nullptr = tracing off). */
    sim::Tracer *tracerPtr = nullptr;

    /** Installed exit ledger (nullptr = accounting off). */
    sim::ExitLedger *ledgerPtr = nullptr;

    /** Installed flight recorder (nullptr = post-mortems off). */
    sim::FlightRecorder *recorderPtr = nullptr;

    /**
     * Registry attachMetrics() last exported into — destroyVm()
     * detaches the dying VM's vCPU StatSets from it so collection
     * never walks freed memory.
     */
    sim::Metrics *metricsPtr = nullptr;

    /**
     * vCPU id → owning VM, kept after the VM dies: the flight
     * recorder's resolver must still attribute a dead VM's final
     * spans when its dump is built during teardown.
     */
    std::map<VcpuId, VmId> vcpuOwner;

    /** Resolve the dispatch-span name for hypercall @p nr (lazily
     *  interned into the installed tracer). */
    sim::TraceName hcSpanName(std::uint64_t nr);

    /** Registered hypercall display names (nr -> name). */
    std::map<std::uint64_t, std::string> hcNames;
    /** Per-tracer cache of interned hypercall span names. */
    std::map<std::uint64_t, sim::TraceName> hcNameIds;

    /** VMs killed mid-own-hypercall, awaiting a safe teardown point. */
    std::vector<VmId> doomedVms;

    /** The demand pager (nullptr = paging off). */
    std::unique_ptr<Pager> pagerPtr;

    // Interned hot/fault-path counter ids (resolved at construction).
    sim::StatId hypercallsId = 0;
    sim::StatId hypercallUnknownId = 0;
    sim::StatId faultInjectedId = 0;
    sim::StatId faultDroppedId = 0;
    sim::StatId faultDelayedId = 0;
    sim::StatId faultDuplicatedId = 0;
    sim::StatId faultErrorsId = 0;
    sim::StatId faultVmKillsId = 0;
    sim::StatId exitIds[cpu::exitReasonCount] = {};

    friend class Vm;    // Vm construction pulls frames/vcpu ids.
    friend class Pager; // the pager is the hypervisor's paging half.
};

} // namespace elisa::hv

#endif // ELISA_HV_HYPERVISOR_HH
