/**
 * @file
 * The five VM networking datapaths of the evaluation, behind one
 * interface:
 *
 *   SriovPath    VF rings in guest RAM, hardware switching
 *                (direct device assignment; no isolation problem
 *                 because the IOMMU partitions the device).
 *   DirectPath   NIC rings direct-mapped into the guest (ivshmem):
 *                fastest software path, no isolation.
 *   ElisaPath    rings live in a manager VM's exported object; the
 *                guest's per-packet work runs in the sub EPT context
 *                behind a 196 ns gate call. Isolated AND exit-less.
 *   VmcallPath   rings hidden in the host; every packet costs a full
 *                699 ns VMCALL round trip (host-interposition).
 *   VhostPath    virtio rings + host backend thread (vhost-net-style):
 *                isolated, but pays notifications and a backend hop.
 *
 * Timing contract: per-packet guest work is charged as calibrated
 * lumps (netPerPacketNs + optional vswitchNs + payload beats) while
 * ring bytes move functionally through simulated memory via uncharged
 * but EPT-checked accesses; transition costs (gate call / VMCALL /
 * kick) come from the respective mechanisms themselves.
 */

#ifndef ELISA_NET_PATHS_HH
#define ELISA_NET_PATHS_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "elisa/gate.hh"
#include "elisa/guest_api.hh"
#include "elisa/manager.hh"
#include "hv/hypervisor.hh"
#include "hv/ivshmem.hh"
#include "net/desc_ring.hh"
#include "net/packet.hh"
#include "sim/resource.hh"
#include "sim/stats.hh"

namespace elisa::net
{

/** Ring region size rounded to whole pages. */
inline constexpr std::uint64_t ringRegionPaged =
    pageAlignUp(DescRing::regionBytes);

/** Guest GPA where direct-mapped NIC ring regions appear. */
inline constexpr Gpa nicRegionGpa = 0x500000000000ull;

/**
 * Abstract datapath bound to one guest vCPU.
 */
class NetPath
{
  public:
    virtual ~NetPath() = default;

    /** Scheme name as it appears in the paper's figures. */
    virtual const char *name() const = 0;

    /** The guest vCPU whose clock this path charges. */
    virtual cpu::Vcpu &vcpu() = 0;

    /**
     * Guest-side transmit of packet (@p seq, @p len): charges guest
     * cost and leaves the payload in the TX ring.
     * @return the guest-clock "handoff" time after the produce.
     */
    virtual SimNs guestTx(std::uint32_t seq, std::uint32_t len) = 0;

    /**
     * Guest-side receive (ring guaranteed non-empty by the workload):
     * charges guest cost.
     * @return (seq, len) of the consumed packet.
     */
    virtual std::pair<std::uint32_t, std::uint32_t> guestRx() = 0;

    /**
     * Hardware/host ingress: a frame finished arriving at @p wire_done;
     * place it into the RX ring.
     * @return the time it becomes visible to the guest (later than
     *         @p wire_done only for backend paths).
     */
    virtual SimNs hostDeliverRx(std::uint32_t seq, std::uint32_t len,
                                SimNs wire_done) = 0;

    /**
     * Hardware/host egress: drain one packet from the TX ring.
     * @param handoff guest time the packet was produced.
     * @return the packet and the time it is ready for the wire.
     */
    virtual std::pair<Packet, SimNs> hostCollectTx(SimNs handoff) = 0;

    /**
     * The calibrated per-packet guest work: driver/descriptor handling
     * plus (for software-switched paths) the forwarding decision plus
     * payload movement at one 8-byte beat per memAccessNs. Public so
     * workload extensions (e.g. the NF-chain bench) can charge the
     * identical base cost.
     */
    static SimNs perPacketNs(const sim::CostModel &cost,
                             std::uint32_t len, bool soft_switch);
};

/**
 * The ring end the five paths share: an RX/TX ring pair in one region
 * (RX at +0, TX one paged ring later), the host's views of both rings,
 * and the host side of every packet. The guest side here is the one
 * SR-IOV, ivshmem and vhost share, where the guest's driver works the
 * rings through its own view; ELISA and VMCALL override it.
 */
class RingPath : public NetPath
{
  public:
    cpu::Vcpu &vcpu() override { return guestCpu; }
    SimNs guestTx(std::uint32_t seq, std::uint32_t len) override;
    std::pair<std::uint32_t, std::uint32_t> guestRx() override;
    SimNs hostDeliverRx(std::uint32_t seq, std::uint32_t len,
                        SimNs wire_done) override;
    std::pair<Packet, SimNs> hostCollectTx(SimNs handoff) override;

  protected:
    RingPath(hv::Hypervisor &hv, cpu::Vcpu &vcpu);

    /**
     * Build the host's views of the ring pair at @p hpa and zero both
     * rings' indices; @p guest_gpa, when given, is where the guest's
     * driver sees the region.
     */
    void setUpRings(Hpa hpa, std::optional<Gpa> guest_gpa = std::nullopt);

    /** Guest work per packet; by default the software-switched lump. */
    virtual SimNs guestPacketNs(std::uint32_t len) const;

    /**
     * The guest side of a path whose sub context or host works the
     * rings for it: @p ok is what the TX call returned, @p packed
     * what the RX call returned. Both count the packet.
     */
    SimNs servedTx(std::uint64_t ok, std::uint32_t seq, std::uint32_t len);
    std::pair<std::uint32_t, std::uint32_t> servedRx(std::uint64_t packed);

    hv::Hypervisor &hyper;
    std::unique_ptr<HostRegionIo> hostRxIo, hostTxIo;

  private:
    /** Count one transmit or receive; emits a per-packet trace instant
     *  when the machine has a tracer installed (one pointer test
     *  otherwise). */
    void count(bool tx, std::uint32_t seq, std::uint32_t len);

    cpu::Vcpu &guestCpu;
    std::unique_ptr<GuestRegionIo> guestRxIo, guestTxIo;
    sim::StatId txPktsId;
    sim::StatId rxPktsId;
};

/** Direct device assignment (SR-IOV VF): rings in guest RAM,
 *  hardware switching. */
class SriovPath : public RingPath
{
  public:
    SriovPath(hv::Hypervisor &hv, hv::Vm &vm, unsigned vcpu_index = 0);

    const char *name() const override { return "SR-IOV"; }

  protected:
    SimNs guestPacketNs(std::uint32_t len) const override;
};

/** Direct-mapped shared NIC rings (ivshmem). */
class DirectPath : public RingPath
{
  public:
    DirectPath(hv::Hypervisor &hv, hv::Vm &vm, unsigned vcpu_index = 0);
    ~DirectPath() override;

    const char *name() const override { return "ivshmem"; }

  private:
    hv::Vm &guestVm;
    std::unique_ptr<hv::IvshmemRegion> region;
};

/** ELISA: rings in a manager-VM export, per-packet work in the sub
 *  context behind a gate call. */
class ElisaPath : public RingPath
{
  public:
    /**
     * @param manager the manager-VM runtime that will own the rings.
     * @param guest the client runtime on the consuming VM.
     * @param export_name unique name for this path's ring object.
     */
    ElisaPath(hv::Hypervisor &hv, core::ElisaManager &manager,
              core::ElisaGuest &guest, const std::string &export_name);

    const char *name() const override { return "ELISA"; }
    SimNs guestTx(std::uint32_t seq, std::uint32_t len) override;
    std::pair<std::uint32_t, std::uint32_t> guestRx() override;

  private:
    core::Gate gate;
};

/** Host-interposition: one VMCALL per packet. */
class VmcallPath : public RingPath
{
  public:
    VmcallPath(hv::Hypervisor &hv, hv::Vm &vm, unsigned vcpu_index = 0);
    ~VmcallPath() override;

    const char *name() const override { return "VMCALL"; }
    SimNs guestTx(std::uint32_t seq, std::uint32_t len) override;
    std::pair<std::uint32_t, std::uint32_t> guestRx() override;

  private:
    Hpa ringsHpa; ///< host-private rings
    std::uint64_t hcTxNr, hcRxNr;
};

/** vhost-net-style virtio path with a host backend thread. */
class VhostPath : public RingPath
{
  public:
    VhostPath(hv::Hypervisor &hv, hv::Vm &vm, unsigned vcpu_index = 0);

    const char *name() const override { return "vhost-net"; }

    /** The backend thread copies each frame, after the ring end. */
    SimNs hostDeliverRx(std::uint32_t seq, std::uint32_t len,
                        SimNs wire_done) override;
    std::pair<Packet, SimNs> hostCollectTx(SimNs handoff) override;

    /** Backend utilization inspection (tests). */
    const sim::SimResource &backendThread() const { return backend; }

  protected:
    SimNs guestPacketNs(std::uint32_t len) const override;

  private:
    /** Per-packet backend service time (copy + virtio handling). */
    SimNs backendServiceNs(std::uint32_t len) const;

    sim::SimResource backend;
};

} // namespace elisa::net

#endif // ELISA_NET_PATHS_HH
