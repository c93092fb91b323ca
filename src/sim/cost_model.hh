/**
 * @file
 * Central timing cost model of the simulated machine.
 *
 * Every nanosecond constant used anywhere in the simulator lives here so
 * experiments can state exactly which machine they modelled, and ablation
 * benches can vary one knob at a time. Defaults are calibrated so the two
 * paper-headline primitives come out exactly as published (ELISA context
 * round-trip 196 ns, VMCALL round-trip 699 ns; see DESIGN.md §6).
 */

#ifndef ELISA_SIM_COST_MODEL_HH
#define ELISA_SIM_COST_MODEL_HH

#include <cstdint>
#include <string>

#include "base/types.hh"

namespace elisa::sim
{

/**
 * Timing parameters of the simulated machine (all in nanoseconds unless
 * stated otherwise). The struct is trivially copyable; subsystems keep a
 * const reference to the instance owned by the Machine.
 */
struct CostModel
{
    // ---- CPU core -------------------------------------------------
    /** Core frequency in GHz (2.6 GHz Xeon-class, for cycle math). */
    double cpuGhz = 2.6;

    // ---- VT-x transition primitives -------------------------------
    /** VMFUNC leaf-0 EPTP switch (no VM exit): ~109 cycles. */
    SimNs vmfuncNs = 42;

    /** One gate-code segment (stack swap + register save/restore). */
    SimNs gateCodeNs = 14;

    /** VM exit (VMCS guest-state save + host context load). */
    SimNs vmexitNs = 480;

    /** VM entry (VMRESUME). */
    SimNs vmentryNs = 180;

    /** Host-side hypercall decode + dispatch-table indirection. */
    SimNs hypercallDispatchNs = 39;

    /** Host-side handling of a CPUID exit (cheaper: no argument ABI). */
    SimNs cpuidHandleNs = 10;

    // ---- Memory system --------------------------------------------
    /** One guest memory access that hits the (EPT-)TLB, per 8 bytes. */
    SimNs memAccessNs = 1;

    /** One EPT page walk on a TLB miss (4 levels). */
    SimNs eptWalkNs = 22;

    // ---- Demand paging / swap ---------------------------------------
    /** Hypervisor software cost to resolve one EPT-violation fault. */
    SimNs pageFaultHandleNs = 650;

    /** Swap-device read of one 4 KiB page (NVMe-class page-in). */
    SimNs swapInNs = 6000;

    /** Swap-device write of one 4 KiB page (page-out on eviction). */
    SimNs swapOutNs = 6000;

    /** Zero-filling one 4 KiB frame (demand-zero / balloon return). */
    SimNs zeroFillNs = 250;

    // ---- ELISA slow path (negotiation / setup) ---------------------
    /** Manager-side bookkeeping to create one sub EPT context. */
    SimNs subContextCreateNs = 2200;

    /** Hypervisor work to map one 4 KiB page into an EPT context. */
    SimNs eptMapPageNs = 310;

    /** One hop of the guest<->hypervisor<->manager negotiation. */
    SimNs negotiationHopNs = 1400;

    /**
     * How long an attach request may sit Pending (manager unresponsive
     * or dead) before Query reports it timed out and reaps it. Far
     * above any legitimate manager turnaround, so the happy path never
     * observes it.
     */
    SimNs negotiationTimeoutNs = 10'000'000;

    // ---- KVS workload ----------------------------------------------
    /** Core of one GET (hash + probe + read) inside the shared region. */
    SimNs kvsGetCoreNs = 590;

    /** Core of one PUT (hash + lock + write) inside the shared region. */
    SimNs kvsPutCoreNs = 735;

    /** Bucket lock hold time during a PUT. */
    SimNs kvsLockHoldNs = 120;

    // ---- Networking ------------------------------------------------
    /** NIC line rate in bits per second (10 GbE). */
    double nicLineRateBps = 10e9;

    /** Per-frame wire overhead: preamble + IFG + CRC, in bytes. */
    std::uint32_t nicFrameOverhead = 24;

    /**
     * Driver per-packet base work (descriptor handling). Calibrated
     * together with vswitchNs so that at 64 B the ELISA networking
     * path beats the VMCALL path by the paper's +163 %:
     * (113+699)/(113+196) = 2.63.
     */
    SimNs netPerPacketNs = 60;

    /** Per-byte cost of host-side payload copies (backend paths). */
    double netPerByteNs = 0.03;

    /** Extra per-packet guest work on the virtio (vhost-net) path. */
    SimNs virtioGuestNs = 260;

    /** Amortized notification (kick/irq) cost per packet, vhost-net. */
    SimNs virtioKickNs = 180;

    /** vhost backend-thread service time per packet (second copy incl). */
    SimNs vhostBackendNs = 950;

    /** Software switch per-packet forwarding decision. */
    SimNs vswitchNs = 45;

    /** One network function's per-packet match/lookup compute. */
    SimNs nfWorkNs = 150;

    // ---- memcached application --------------------------------------
    /** Request parsing + hashing + response build in the server. */
    SimNs memcachedCoreNs = 1800;

    /** Client<->server base network propagation (one way). */
    SimNs netPropagationNs = 11000;

    // ---- notification -----------------------------------------------
    /** Posted-interrupt / virtual IPI delivery latency. */
    SimNs ipiDeliverNs = 1100;

    // ---- Derived quantities -----------------------------------------
    /**
     * ELISA gate-call round trip: VMFUNC default->gate, gate prologue,
     * VMFUNC gate->sub, (callee), VMFUNC sub->gate, epilogue,
     * VMFUNC gate->default. 4x42 + 2x14 = 196 ns by default.
     */
    SimNs elisaRttNs() const { return 4 * vmfuncNs + 2 * gateCodeNs; }

    /** VMCALL round trip: exit + dispatch + entry = 699 ns by default. */
    SimNs
    vmcallRttNs() const
    {
        return vmexitNs + hypercallDispatchNs + vmentryNs;
    }

    /** CPUID-exit round trip (no hypercall ABI decode). */
    SimNs
    cpuidRttNs() const
    {
        return vmexitNs + cpuidHandleNs + vmentryNs;
    }

    /** Nanoseconds to put one @p frame_bytes frame on the wire. */
    double
    wireTimeNs(std::uint32_t frame_bytes) const
    {
        const double bits =
            8.0 * (double)(frame_bytes + nicFrameOverhead);
        return bits / nicLineRateBps * 1e9;
    }

    /** Render the calibration summary printed by every bench. */
    std::string summary() const;
};

} // namespace elisa::sim

#endif // ELISA_SIM_COST_MODEL_HH
