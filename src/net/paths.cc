#include "net/paths.hh"

#include <algorithm>

#include "base/bitops.hh"
#include "base/logging.hh"

namespace elisa::net
{

namespace
{

/** Pack (seq, len) into the single return register of rx calls. */
std::uint64_t
packSeqLen(std::uint32_t seq, std::uint32_t len)
{
    return (std::uint64_t{seq} << 32) | len;
}

std::pair<std::uint32_t, std::uint32_t>
unpackSeqLen(std::uint64_t packed)
{
    return {static_cast<std::uint32_t>(packed >> 32),
            static_cast<std::uint32_t>(packed & 0xffffffffull)};
}

/**
 * The ring work ELISA's sub context and VMCALL's host run for the
 * guest, charging its clock: produce packet (@p seq, @p len), passed
 * in the low halves of two argument registers, into @p tx.
 * @return 1, or 0 when the ring is full.
 */
std::uint64_t
serveTx(cpu::Vcpu &vcpu, RegionIo &tx, std::uint32_t seq,
        std::uint32_t len)
{
    vcpu.clock().advance(NetPath::perPacketNs(vcpu.costModel(), len, true));
    return DescRing::pushPattern(tx, seq, len) ? 1 : 0;
}

/** What serveRx returns for an empty ring: no packet packs to it. */
constexpr std::uint64_t rxRingEmpty = ~std::uint64_t{0};

/** Consume one packet from @p rx for the guest, like serveTx; the
 *  payload is read and dropped. A len above bufBytes, which only a
 *  forged descriptor carries, is reported as bufBytes + 1, so the
 *  packet counts as corrupt and cannot pack to rxRingEmpty.
 *  @return the packed (seq, len), or rxRingEmpty. */
std::uint64_t
serveRx(cpu::Vcpu &vcpu, RegionIo &rx)
{
    std::uint8_t payload[DescRing::bufBytes];
    const auto seq_len = DescRing::pop(rx, payload);
    if (!seq_len)
        return rxRingEmpty;
    const std::uint32_t len =
        std::min(seq_len->second, DescRing::bufBytes + 1);
    vcpu.clock().advance(NetPath::perPacketNs(vcpu.costModel(), len, true));
    return packSeqLen(seq_len->first, len);
}

/** Allocate a ring pair in @p vm's RAM (VF and virtio rings). */
Gpa
ringsInGuestRam(hv::Vm &vm)
{
    auto gpa = vm.allocGuestMem(2 * ringRegionPaged);
    fatal_if(!gpa, "VM '%s' out of RAM for NIC rings", vm.name().c_str());
    return *gpa;
}

} // anonymous namespace

SimNs
NetPath::perPacketNs(const sim::CostModel &cost, std::uint32_t len,
                     bool soft_switch)
{
    return cost.netPerPacketNs + (soft_switch ? cost.vswitchNs : 0) +
           cost.memAccessNs * divCeil(len, 8);
}

// ---- RingPath --------------------------------------------------------

RingPath::RingPath(hv::Hypervisor &hv, cpu::Vcpu &vcpu)
    : hyper(hv), guestCpu(vcpu), txPktsId(hv.stats().id("net_tx_pkts")),
      rxPktsId(hv.stats().id("net_rx_pkts"))
{
}

void
RingPath::setUpRings(Hpa hpa, std::optional<Gpa> guest_gpa)
{
    hostRxIo = std::make_unique<HostRegionIo>(hyper.memory(), hpa);
    hostTxIo = std::make_unique<HostRegionIo>(hyper.memory(),
                                              hpa + ringRegionPaged);
    if (guest_gpa) {
        guestRxIo = std::make_unique<GuestRegionIo>(guestCpu, *guest_gpa);
        guestTxIo = std::make_unique<GuestRegionIo>(
            guestCpu, *guest_gpa + ringRegionPaged);
    }
    DescRing::init(*hostRxIo);
    DescRing::init(*hostTxIo);
}

SimNs
RingPath::guestPacketNs(std::uint32_t len) const
{
    return perPacketNs(hyper.cost(), len, true);
}

void
RingPath::count(bool tx, std::uint32_t seq, std::uint32_t len)
{
    const sim::StatId id = tx ? txPktsId : rxPktsId;
    const sim::TraceName name =
        tx ? sim::TraceName::NetTx : sim::TraceName::NetRx;
    hyper.stats().inc(id);
    if (sim::Tracer *tr = guestCpu.tracer()) {
        tr->instant(sim::SpanCat::Net, name, guestCpu.id(),
                    guestCpu.clock().now(), seq, len);
    }
}

SimNs
RingPath::guestTx(std::uint32_t seq, std::uint32_t len)
{
    guestCpu.clock().advance(guestPacketNs(len));
    const bool ok = DescRing::pushPattern(*guestTxIo, seq, len);
    panic_if(!ok, "%s TX ring overflow (workload pacing bug)", name());
    count(true, seq, len);
    return guestCpu.clock().now();
}

std::pair<std::uint32_t, std::uint32_t>
RingPath::guestRx()
{
    std::uint8_t payload[DescRing::bufBytes];
    const auto seq_len = DescRing::pop(*guestRxIo, payload);
    panic_if(!seq_len, "%s RX ring empty (workload pacing bug)", name());
    guestCpu.clock().advance(guestPacketNs(seq_len->second));
    count(false, seq_len->first, seq_len->second);
    return *seq_len;
}

SimNs
RingPath::servedTx(std::uint64_t ok, std::uint32_t seq, std::uint32_t len)
{
    panic_if(ok != 1, "%s TX ring overflow (workload pacing bug)", name());
    count(true, seq, len);
    return guestCpu.clock().now();
}

std::pair<std::uint32_t, std::uint32_t>
RingPath::servedRx(std::uint64_t packed)
{
    panic_if(packed == rxRingEmpty,
             "%s RX ring empty (workload pacing bug)", name());
    const auto seq_len = unpackSeqLen(packed);
    count(false, seq_len.first, seq_len.second);
    return seq_len;
}

SimNs
RingPath::hostDeliverRx(std::uint32_t seq, std::uint32_t len,
                        SimNs wire_done)
{
    const bool ok = DescRing::pushPattern(*hostRxIo, seq, len);
    panic_if(!ok, "%s RX ring overflow", name());
    return wire_done;
}

std::pair<Packet, SimNs>
RingPath::hostCollectTx(SimNs handoff)
{
    auto pkt = DescRing::pop(*hostTxIo);
    panic_if(!pkt, "%s TX ring empty", name());
    return {std::move(*pkt), handoff};
}

// ---- SriovPath -------------------------------------------------------

SriovPath::SriovPath(hv::Hypervisor &hv, hv::Vm &vm, unsigned vcpu_index)
    : RingPath(hv, vm.vcpu(vcpu_index))
{
    const Gpa gpa = ringsInGuestRam(vm);
    setUpRings(vm.ramGpaToHpa(gpa), gpa);
}

SimNs
SriovPath::guestPacketNs(std::uint32_t len) const
{
    return perPacketNs(hyper.cost(), len, false);
}

// ---- DirectPath ------------------------------------------------------

DirectPath::DirectPath(hv::Hypervisor &hv, hv::Vm &vm,
                       unsigned vcpu_index)
    : RingPath(hv, vm.vcpu(vcpu_index)), guestVm(vm)
{
    region = std::make_unique<hv::IvshmemRegion>(
        hv, "nic-rings-" + vm.name(), 2 * ringRegionPaged);
    fatal_if(!region->attach(vm, nicRegionGpa),
             "NIC ring window collision in VM '%s'", vm.name().c_str());
    setUpRings(region->base(), nicRegionGpa);
}

DirectPath::~DirectPath()
{
    region->detach(guestVm, nicRegionGpa);
}

// ---- ElisaPath -------------------------------------------------------

ElisaPath::ElisaPath(hv::Hypervisor &hv, core::ElisaManager &manager,
                     core::ElisaGuest &guest,
                     const std::string &export_name)
    : RingPath(hv, guest.vcpu())
{
    // The shared code: per-packet NF work executed inside the sub EPT
    // context. RX ring at object+0, TX ring at object+ringRegionPaged.
    core::SharedFnTable fns;
    fns.push_back([](core::SubCallCtx &ctx) { // 0: tx(seq, len)
        GuestRegionIo io(ctx.view.vcpu(), ctx.obj + ringRegionPaged);
        return serveTx(ctx.view.vcpu(), io, ctx.arg0, ctx.arg1);
    });
    fns.push_back([](core::SubCallCtx &ctx) { // 1: rx()
        GuestRegionIo io(ctx.view.vcpu(), ctx.obj);
        return serveRx(ctx.view.vcpu(), io);
    });

    auto exported = manager.exportObject(core::ExportKey(export_name),
                                         2 * ringRegionPaged,
                                         std::move(fns));
    fatal_if(!exported, "exporting NIC rings '%s' failed",
             export_name.c_str());

    setUpRings(manager.vm().ramGpaToHpa(exported->objectGpa));

    core::AttachResult attached = guest.tryAttach(core::ExportKey(export_name), manager);
    fatal_if(!attached, "attach to NIC rings '%s' failed: %s",
             export_name.c_str(), attached.reason().c_str());
    gate = attached.take();
}

SimNs
ElisaPath::guestTx(std::uint32_t seq, std::uint32_t len)
{
    return servedTx(gate.call(0, seq, len), seq, len);
}

std::pair<std::uint32_t, std::uint32_t>
ElisaPath::guestRx()
{
    return servedRx(gate.call(1));
}

// ---- VmcallPath ------------------------------------------------------

VmcallPath::VmcallPath(hv::Hypervisor &hv, hv::Vm &vm,
                       unsigned vcpu_index)
    : RingPath(hv, vm.vcpu(vcpu_index))
{
    auto frames =
        hv.allocator().alloc(2 * ringRegionPaged / pageSize);
    fatal_if(!frames, "out of memory for host NIC rings");
    ringsHpa = *frames;
    setUpRings(ringsHpa);

    // Host-interposition handlers: the host does the ring work on the
    // guest's behalf, charging the guest's clock for it.
    hcTxNr = hv.allocServiceNr();
    hcRxNr = hv.allocServiceNr();
    hv.registerHypercall(
        hcTxNr, [this](cpu::Vcpu &vcpu, const cpu::HypercallArgs &args) {
            return serveTx(vcpu, *hostTxIo, args.arg0, args.arg1);
        });
    hv.registerHypercall(
        hcRxNr, [this](cpu::Vcpu &vcpu, const cpu::HypercallArgs &) {
            return serveRx(vcpu, *hostRxIo);
        });
}

VmcallPath::~VmcallPath()
{
    hyper.allocator().free(ringsHpa, 2 * ringRegionPaged / pageSize);
}

SimNs
VmcallPath::guestTx(std::uint32_t seq, std::uint32_t len)
{
    return servedTx(vcpu().vmcall({hcTxNr, seq, len}), seq, len);
}

std::pair<std::uint32_t, std::uint32_t>
VmcallPath::guestRx()
{
    return servedRx(vcpu().vmcall({hcRxNr}));
}

// ---- VhostPath --------------------------------------------------

VhostPath::VhostPath(hv::Hypervisor &hv, hv::Vm &vm, unsigned vcpu_index)
    : RingPath(hv, vm.vcpu(vcpu_index))
{
    const Gpa gpa = ringsInGuestRam(vm);
    setUpRings(vm.ramGpaToHpa(gpa), gpa);
}

SimNs
VhostPath::backendServiceNs(std::uint32_t len) const
{
    const sim::CostModel &cost = hyper.cost();
    return cost.vhostBackendNs +
           static_cast<SimNs>(cost.netPerByteNs * len);
}

SimNs
VhostPath::guestPacketNs(std::uint32_t len) const
{
    const sim::CostModel &cost = hyper.cost();
    return cost.virtioGuestNs + cost.virtioKickNs +
           cost.memAccessNs * divCeil(len, 8);
}

SimNs
VhostPath::hostDeliverRx(std::uint32_t seq, std::uint32_t len,
                         SimNs wire_done)
{
    RingPath::hostDeliverRx(seq, len, wire_done);
    return backend.submit(wire_done, backendServiceNs(len));
}

std::pair<Packet, SimNs>
VhostPath::hostCollectTx(SimNs handoff)
{
    auto [pkt, ready] = RingPath::hostCollectTx(handoff);
    ready = backend.submit(ready, backendServiceNs(pkt.len));
    return {std::move(pkt), ready};
}

} // namespace elisa::net
