/**
 * @file
 * Tests for the networking substrate: rings, the NIC wire model, the
 * five datapaths (functional correctness and relative performance),
 * and the three workloads.
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "base/units.hh"
#include "elisa/negotiation.hh"
#include "net/desc_ring.hh"
#include "net/nf.hh"
#include "net/paths.hh"
#include "net/phys_nic.hh"
#include "net/workloads.hh"

namespace
{

using namespace elisa;
using namespace elisa::net;

TEST(PacketPattern, FillAndCheck)
{
    Packet p = makePacket(1234, 256);
    EXPECT_EQ(p.len, 256u);
    EXPECT_TRUE(checkPattern(p.data.data(), 1234, 256));
    EXPECT_FALSE(checkPattern(p.data.data(), 1235, 256));
    p.data[100] ^= 0xff;
    bool still_ok = checkPattern(p.data.data(), 1234, 256);
    // Byte 100 is not necessarily a probed position; header always is.
    p.data[0] ^= 0xff;
    EXPECT_FALSE(checkPattern(p.data.data(), 1234, 256));
    (void)still_ok;
}

TEST(PacketPattern, FillMatchesPerByteFormula)
{
    // fillPattern copies the rolling pattern in runs; pin it against
    // the formula byte by byte, across the seq values where
    // seq * 131 wraps its low byte and its 32 bits.
    std::vector<std::uint8_t> buf(maxPacketBytes + 1);
    for (std::uint32_t seq : {0u, 255u, 256u, 0xffffffffu}) {
        for (std::uint32_t len = 8; len <= maxPacketBytes; ++len) {
            buf[len] = 0xee; // sentinel: nothing written past len
            fillPattern(buf.data(), seq, len);
            std::uint32_t got_seq = 0, got_len = 0;
            std::memcpy(&got_seq, buf.data(), 4);
            std::memcpy(&got_len, buf.data() + 4, 4);
            ASSERT_EQ(got_seq, seq);
            ASSERT_EQ(got_len, len);
            for (std::uint32_t i = 8; i < len; ++i) {
                ASSERT_EQ(buf[i],
                          static_cast<std::uint8_t>((seq * 131 + i) & 0xff))
                    << "seq " << seq << " len " << len << " byte " << i;
            }
            ASSERT_EQ(buf[len], 0xee) << "seq " << seq << " len " << len;
        }
    }
}

class RingTest : public ::testing::Test
{
  protected:
    RingTest() : memory(8 * MiB), io(memory, 0)
    {
        DescRing::init(io);
    }

    mem::HostMemory memory;
    HostRegionIo io;
};

TEST_F(RingTest, PushPopFifoOrder)
{
    for (std::uint32_t i = 0; i < 10; ++i)
        ASSERT_TRUE(DescRing::pushPattern(io, i, 64 + i));
    EXPECT_EQ(DescRing::count(io), 10u);
    for (std::uint32_t i = 0; i < 10; ++i) {
        auto p = DescRing::pop(io);
        ASSERT_TRUE(p);
        EXPECT_EQ(p->seq, i);
        EXPECT_EQ(p->len, 64 + i);
        EXPECT_TRUE(checkPattern(p->data.data(), i, 64 + i));
    }
    EXPECT_FALSE(DescRing::pop(io));
}

TEST_F(RingTest, FullRingRejectsPush)
{
    for (std::uint32_t i = 0; i < DescRing::ringEntries; ++i)
        ASSERT_TRUE(DescRing::pushPattern(io, i, 64));
    EXPECT_EQ(DescRing::freeSlots(io), 0u);
    EXPECT_FALSE(DescRing::pushPattern(io, 999, 64));
    // Draining one slot re-enables the producer.
    EXPECT_TRUE(DescRing::pop(io));
    EXPECT_TRUE(DescRing::pushPattern(io, 999, 64));
}

TEST_F(RingTest, IndexWraparound)
{
    // Push/pop far more than ringEntries to cross the u32 slot mask.
    for (std::uint32_t i = 0; i < 3 * DescRing::ringEntries + 7; ++i) {
        ASSERT_TRUE(DescRing::pushPattern(io, i, 128));
        auto p = DescRing::pop(io);
        ASSERT_TRUE(p);
        EXPECT_EQ(p->seq, i);
    }
    EXPECT_EQ(DescRing::count(io), 0u);
}

TEST_F(RingTest, PopHeaderConsumesWithoutPayloadRead)
{
    ASSERT_TRUE(DescRing::pushPattern(io, 7, 512));
    auto hdr = DescRing::popHeader(io);
    ASSERT_TRUE(hdr);
    EXPECT_EQ(hdr->first, 7u);
    EXPECT_EQ(hdr->second, 512u);
    EXPECT_EQ(DescRing::count(io), 0u);
}

TEST_F(RingTest, PopIgnoresForgedBufferOffset)
{
    // A peer can rewrite a published descriptor. Its bufOffset must not
    // steer the consumer's read out of the ring: plant bytes 6 MiB into
    // the machine, far past the ring region, and point the descriptor
    // at them.
    ASSERT_TRUE(DescRing::pushPattern(io, 42, 256));
    const std::uint64_t planted = 6 * MiB;
    std::vector<std::uint8_t> junk(256, 0xab);
    io.write(planted, junk.data(), junk.size());
    io.write(DescRing::descOff, &planted, sizeof(planted));

    auto p = DescRing::pop(io);
    ASSERT_TRUE(p);
    EXPECT_EQ(p->seq, 42u);
    EXPECT_TRUE(checkPattern(p->data.data(), 42, 256));
}

TEST_F(RingTest, ForgedLengthIsCorruptNotFatal)
{
    // A peer can rewrite a published descriptor's len. A len above
    // bufBytes must not abort the consumer or make it copy past one
    // slot: the packet pops as one no checker passes, and the ring
    // goes on working.
    ASSERT_TRUE(DescRing::pushPattern(io, 1, 256));
    ASSERT_TRUE(DescRing::pushPattern(io, 2, 512));
    const std::uint32_t forged = DescRing::bufBytes + 1;
    io.write(DescRing::descOff + 8, &forged, sizeof(forged));

    auto p = DescRing::pop(io);
    ASSERT_TRUE(p);
    EXPECT_EQ(p->len, forged);
    EXPECT_EQ(p->data.size(), DescRing::bufBytes);
    EXPECT_FALSE(p->data.size() >= p->len &&
                 checkPattern(p->data.data(), p->seq, p->len));

    auto q = DescRing::pop(io);
    ASSERT_TRUE(q);
    EXPECT_EQ(q->seq, 2u);
    EXPECT_EQ(q->len, 512u);
    EXPECT_TRUE(checkPattern(q->data.data(), 2, 512));
    EXPECT_EQ(DescRing::count(io), 0u);
}

TEST(NetResultMath, RatesDeriveFromSimulatedTime)
{
    NetResult r;
    r.packets = 1000;
    r.elapsed = 1000000; // 1000 packets in 1 ms => 1 Mpps
    EXPECT_DOUBLE_EQ(r.pps(), 1e6);
    EXPECT_DOUBLE_EQ(r.mpps(), 1.0);
    // 64 B at 1 Mpps = 0.512 Gbit/s of goodput.
    EXPECT_DOUBLE_EQ(r.gbps(64), 0.512);
    NetResult empty;
    EXPECT_DOUBLE_EQ(empty.pps(), 0.0);
}

TEST(PhysNicModel, WireTimesMatchLineRate)
{
    sim::CostModel cost;
    PhysNic nic(cost);
    // 64 B + 24 B overhead at 10 GbE = 70.4 ns -> 70 ns integer.
    EXPECT_EQ(nic.wireTime(64), 70u);
    EXPECT_EQ(nic.wireTime(1472), 1196u);
    // Back-to-back arrivals space by the wire time.
    const SimNs a = nic.rxArrive(0, 64);
    const SimNs b = nic.rxArrive(0, 64);
    EXPECT_EQ(b - a, nic.wireTime(64));
    // Egress respects readiness.
    const SimNs t = nic.txDepart(10000, 64);
    EXPECT_EQ(t, 10000u + nic.wireTime(64));
}

// ---- NF chains --------------------------------------------------------

class NfChainTest : public ::testing::Test
{
  protected:
    NfChainTest()
        : hv(64 * MiB), vm(hv.createVm("nf", 8 * MiB)),
          io(hv.memory(), hv.allocator().alloc(1).value())
    {
    }

    hv::Hypervisor hv;
    hv::Vm &vm;
    HostRegionIo io;
};

TEST_F(NfChainTest, BuildAndValidate)
{
    EXPECT_FALSE(NfChain::valid(io, 0));
    NfChain::build(io, 0,
                   {NfKind::Firewall, NfKind::Counter});
    EXPECT_TRUE(NfChain::valid(io, 0));
    EXPECT_EQ(NfChain::length(io, 0), 2u);
    EXPECT_EQ(NfChain::hits(io, 0, 0), 0u);
}

TEST_F(NfChainTest, CountersTrackProcessing)
{
    NfChain::build(io, 0,
                   {NfKind::Nat, NfKind::LoadBalancer,
                    NfKind::Counter});
    cpu::Vcpu &cpu = vm.vcpu(0);
    for (std::uint32_t seq = 0; seq < 100; ++seq)
        EXPECT_EQ(NfChain::process(cpu, io, 0, 3, seq, 256),
                  NfVerdict::Pass);
    for (std::size_t nf = 0; nf < 3; ++nf)
        EXPECT_EQ(NfChain::hits(io, 0, nf), 100u);
    EXPECT_EQ(NfChain::bytes(io, 0, 2), 100u * 256u);
}

TEST_F(NfChainTest, FirewallDropsAndShortCircuits)
{
    // Deny every flow whose hash is divisible by 2: about half.
    NfChain::build(io, 0, {NfKind::Firewall, NfKind::Counter},
                   /*deny_modulus=*/2);
    cpu::Vcpu &cpu = vm.vcpu(0);
    std::uint32_t passed = 0;
    for (std::uint32_t seq = 0; seq < 1000; ++seq) {
        const NfVerdict verdict = NfChain::process(cpu, io, 0, 2, seq, 64);
        EXPECT_NE(verdict, NfVerdict::Corrupt);
        passed += verdict == NfVerdict::Pass ? 1 : 0;
    }
    EXPECT_GT(passed, 300u);
    EXPECT_LT(passed, 700u);
    EXPECT_EQ(NfChain::drops(io, 0, 0), 1000u - passed);
    // Dropped packets never reach the counter NF.
    EXPECT_EQ(NfChain::hits(io, 0, 1), passed);
}

TEST_F(NfChainTest, ProcessingChargesPerNf)
{
    NfChain::build(io, 0,
                   {NfKind::Counter, NfKind::Counter,
                    NfKind::Counter});
    cpu::Vcpu &cpu = vm.vcpu(0);
    const SimNs t0 = cpu.clock().now();
    NfChain::process(cpu, io, 0, 3, 1, 64);
    EXPECT_EQ(cpu.clock().now() - t0, 3 * hv.cost().nfWorkNs);
}

TEST_F(NfChainTest, DeterministicAcrossSchemesState)
{
    // The same packet stream against two separate chain instances
    // yields identical state: scheme-independence of the NF logic.
    auto frame2 = hv.allocator().alloc(1);
    HostRegionIo io2(hv.memory(), *frame2);
    const std::vector<NfKind> kinds{NfKind::Firewall, NfKind::Nat,
                                    NfKind::Counter};
    NfChain::build(io, 0, kinds, 5);
    NfChain::build(io2, 0, kinds, 5);
    cpu::Vcpu &cpu = vm.vcpu(0);
    for (std::uint32_t seq = 0; seq < 500; ++seq) {
        NfChain::process(cpu, io, 0, 3, seq, 128);
        NfChain::process(cpu, io2, 0, 3, seq, 128);
    }
    for (std::size_t nf = 0; nf < kinds.size(); ++nf) {
        EXPECT_EQ(NfChain::hits(io, 0, nf), NfChain::hits(io2, 0, nf));
        EXPECT_EQ(NfChain::drops(io, 0, nf),
                  NfChain::drops(io2, 0, nf));
    }
}

/**
 * Whoever maps a chain region can rewrite any of it. Each test forges
 * one field with a plain store and runs a packet: the chain reports
 * Corrupt (a drop of its own kind) and the simulator keeps running.
 * Before process() took the host's chain length these panicked (magic,
 * kind, length) or died of SIGFPE (a load balancer with no backend).
 */
class NfChainForgedTest : public NfChainTest
{
  protected:
    NfChainForgedTest()
    {
        NfChain::build(io, 0, kinds, /*deny_modulus=*/0, /*backends=*/4);
    }

    /** Run packet 7 through the chain the host built. */
    NfVerdict
    runPacket()
    {
        return NfChain::process(vm.vcpu(0), io, 0,
                                static_cast<std::uint32_t>(kinds.size()),
                                7, 64);
    }

    /** Byte offset of NF @p nf's state block. */
    static std::uint64_t nfOff(std::size_t nf) { return 8 + nf * 64; }

    const std::vector<NfKind> kinds{NfKind::Firewall, NfKind::Nat,
                                    NfKind::LoadBalancer,
                                    NfKind::Counter};
};

TEST_F(NfChainForgedTest, ForgedMagicIsCorrupt)
{
    ASSERT_EQ(runPacket(), NfVerdict::Pass);
    io.write32(4, 0xdeadu);
    EXPECT_EQ(runPacket(), NfVerdict::Corrupt);
    // No NF ran: the hit counters still hold the one good packet.
    for (std::size_t nf = 0; nf < kinds.size(); ++nf)
        EXPECT_EQ(NfChain::hits(io, 0, nf), 1u);
}

TEST_F(NfChainForgedTest, ForgedKindIsCorrupt)
{
    io.write32(nfOff(1), 0x77u); // the NAT's kind
    EXPECT_EQ(runPacket(), NfVerdict::Corrupt);
    // The firewall before it ran; nothing after it did.
    EXPECT_EQ(NfChain::hits(io, 0, 0), 1u);
    EXPECT_EQ(NfChain::hits(io, 0, 3), 0u);
}

TEST_F(NfChainForgedTest, LoadBalancerWithNoBackendIsCorrupt)
{
    io.write32(nfOff(2) + 4, 0); // the LB's backend count
    EXPECT_EQ(runPacket(), NfVerdict::Corrupt);
    EXPECT_EQ(NfChain::hits(io, 0, 3), 0u);
}

TEST_F(NfChainForgedTest, ForgedLengthIsCorrupt)
{
    // One NF past the chain: its block is all zeros, kind 0.
    io.write32(0, static_cast<std::uint32_t>(kinds.size() + 1));
    EXPECT_EQ(runPacket(), NfVerdict::Corrupt);
    // Rejected before any NF ran.
    for (std::size_t nf = 0; nf < kinds.size(); ++nf)
        EXPECT_EQ(NfChain::hits(io, 0, nf), 0u);
    // A length within the chain the host built is the guest's own
    // business: the first NFs run and the packet passes.
    io.write32(0, 2);
    EXPECT_EQ(runPacket(), NfVerdict::Pass);
    EXPECT_EQ(NfChain::hits(io, 0, 1), 1u);
    EXPECT_EQ(NfChain::hits(io, 0, 2), 0u);
}

/**
 * A direct-mapped path whose guest rewrites the len of the descriptor
 * for packet 0 just after it is produced, in its TX ring and in its
 * RX ring, with plain stores to the mapped rings.
 */
class ForgingGuestPath : public NetPath
{
  public:
    explicit ForgingGuestPath(DirectPath &path) : inner(path) {}

    const char *name() const override { return inner.name(); }
    cpu::Vcpu &vcpu() override { return inner.vcpu(); }

    SimNs
    guestTx(std::uint32_t seq, std::uint32_t len) override
    {
        const SimNs handoff = inner.guestTx(seq, len);
        if (seq == 0)
            forgeLastLen(nicRegionGpa + ringRegionPaged);
        return handoff;
    }

    std::pair<std::uint32_t, std::uint32_t>
    guestRx() override
    {
        return inner.guestRx();
    }

    SimNs
    hostDeliverRx(std::uint32_t seq, std::uint32_t len,
                  SimNs wire_done) override
    {
        const SimNs ready = inner.hostDeliverRx(seq, len, wire_done);
        if (seq == 0)
            forgeLastLen(nicRegionGpa);
        return ready;
    }

    std::pair<Packet, SimNs>
    hostCollectTx(SimNs handoff) override
    {
        return inner.hostCollectTx(handoff);
    }

  private:
    void
    forgeLastLen(Gpa ring)
    {
        cpu::GuestView v(inner.vcpu(), /*charge_time=*/false);
        const std::uint32_t prod = v.read<std::uint32_t>(ring);
        const Gpa desc = ring + DescRing::descOff +
                         16ull * ((prod - 1) % DescRing::ringEntries);
        v.write<std::uint32_t>(desc + 8, DescRing::bufBytes + 1);
    }

    DirectPath &inner;
};

/** Full five-path fixture on one machine. */
class PathTest : public ::testing::Test
{
  protected:
    PathTest()
        : hv(1024 * MiB), svc(hv), nic(hv.cost()),
          managerVm(hv.createVm("netmgr", 64 * MiB)),
          guestVm(hv.createVm("guest", 64 * MiB)),
          peerVm(hv.createVm("peer", 64 * MiB)),
          manager(managerVm, svc), guest(guestVm, svc),
          peer(peerVm, svc)
    {
    }

    hv::Hypervisor hv;
    core::ElisaService svc;
    PhysNic nic;
    hv::Vm &managerVm;
    hv::Vm &guestVm;
    hv::Vm &peerVm;
    core::ElisaManager manager;
    core::ElisaGuest guest;
    core::ElisaGuest peer;
};

TEST_F(PathTest, AllPathsMovePacketsCorrectly)
{
    SriovPath sriov(hv, guestVm);
    DirectPath direct(hv, guestVm);
    ElisaPath elisa(hv, manager, guest, "nic-t0");
    VmcallPath vmcall(hv, guestVm);
    VhostPath vhost(hv, guestVm);
    NetPath *paths[] = {&sriov, &direct, &elisa, &vmcall, &vhost};

    for (NetPath *path : paths) {
        SCOPED_TRACE(path->name());
        auto rx = runRx(*path, nic, 256, 500);
        EXPECT_EQ(rx.packets, 500u);
        EXPECT_EQ(rx.corrupt, 0u);
        EXPECT_GT(rx.mpps(), 0.0);
        nic.reset();

        auto tx = runTx(*path, nic, 256, 500);
        EXPECT_EQ(tx.corrupt, 0u);
        nic.reset();
    }
}

TEST_F(PathTest, RelativeOrderAt64Bytes)
{
    SriovPath sriov(hv, guestVm);
    DirectPath direct(hv, guestVm);
    ElisaPath elisa(hv, manager, guest, "nic-t1");
    VmcallPath vmcall(hv, guestVm);
    VhostPath vhost(hv, guestVm);

    auto run = [&](NetPath &p) {
        nic.reset();
        return runRx(p, nic, 64, 20000).mpps();
    };
    const double m_sriov = run(sriov);
    const double m_direct = run(direct);
    const double m_elisa = run(elisa);
    const double m_vmcall = run(vmcall);
    const double m_vhost = run(vhost);

    // The paper's ordering at 64 B.
    EXPECT_GT(m_sriov, m_direct);
    EXPECT_GT(m_direct, m_elisa);
    EXPECT_GT(m_elisa, m_vmcall);
    EXPECT_GT(m_vmcall, m_vhost);

    // ELISA beats VMCALL by roughly the paper's +163 % (+-15 %).
    const double gain = (m_elisa - m_vmcall) / m_vmcall * 100.0;
    EXPECT_NEAR(gain, 163.0, 15.0);

    // SR-IOV is line-rate bound at 64 B (14.2 Mpps at 10 GbE).
    EXPECT_NEAR(m_sriov, 14.2, 0.3);
}

TEST_F(PathTest, LargePacketsConvergeToLineRate)
{
    DirectPath direct(hv, guestVm);
    ElisaPath elisa(hv, manager, guest, "nic-t2");
    VmcallPath vmcall(hv, guestVm);

    auto run = [&](NetPath &p) {
        nic.reset();
        return runRx(p, nic, 1472, 5000).mpps();
    };
    const double line = 1e3 / 1196.8; // Mpps at 10 GbE, 1472 B
    EXPECT_NEAR(run(direct), line, 0.02);
    EXPECT_NEAR(run(elisa), line, 0.02);
    EXPECT_NEAR(run(vmcall), line, 0.02);
}

TEST_F(PathTest, VhostIsBackendBound)
{
    VhostPath vhost(hv, guestVm);
    auto r = runRx(vhost, nic, 64, 20000);
    // Backend: ~952 ns/packet -> ~1.05 Mpps, well below the guest's
    // own virtio rate.
    EXPECT_NEAR(r.mpps(), 1.05, 0.1);
    EXPECT_GT(vhost.backendThread().count(), 0u);
}

TEST_F(PathTest, TxThroughputMatchesRxShape)
{
    DirectPath direct(hv, guestVm);
    VmcallPath vmcall(hv, guestVm);
    nic.reset();
    auto t_direct = runTx(direct, nic, 64, 20000);
    nic.reset();
    auto t_vmcall = runTx(vmcall, nic, 64, 20000);
    EXPECT_GT(t_direct.mpps(), t_vmcall.mpps());
    EXPECT_EQ(t_direct.corrupt, 0u);
    EXPECT_EQ(t_vmcall.corrupt, 0u);
}

TEST_F(PathTest, Vm2VmMovesDataBetweenVms)
{
    // Sender on guestVm, receiver on peerVm (software switch).
    DirectPath tx(hv, guestVm);
    DirectPath rx(hv, peerVm);
    auto r = runVm2Vm(tx, rx, nic, /*through_wire=*/false, 256, 5000);
    EXPECT_EQ(r.packets, 5000u);
    EXPECT_EQ(r.corrupt, 0u);
    EXPECT_GT(r.mpps(), 1.0);
}

TEST_F(PathTest, ForgedLengthCountsAsCorrupt)
{
    // Each runner takes a length its peer forged for one packet as a
    // corrupt packet, and the rest of the run goes through.
    DirectPath direct(hv, guestVm);
    ForgingGuestPath forging(direct);
    EXPECT_EQ(runRx(forging, nic, 256, 10).corrupt, 1u);
    nic.reset();
    EXPECT_EQ(runTx(forging, nic, 256, 10).corrupt, 1u);
    nic.reset();
    DirectPath rx(hv, peerVm);
    EXPECT_EQ(runVm2Vm(forging, rx, nic, false, 256, 10).corrupt, 1u);
}

/**
 * A served path (ELISA or VMCALL) whose peer rewrites the first RX
 * descriptor's seq and len to 0xffffffff once the host has posted it.
 */
template <class Path>
class ForgedRxDescriptor : public Path
{
  public:
    using Path::Path;

    SimNs
    hostDeliverRx(std::uint32_t seq, std::uint32_t len,
                  SimNs wire_done) override
    {
        const SimNs ready = Path::hostDeliverRx(seq, len, wire_done);
        if (seq == 0) {
            RegionIo &ring = *this->hostRxIo;
            const std::uint32_t prod = ring.read32(0);
            const std::uint64_t desc =
                DescRing::descOff +
                16ull * ((prod - 1) % DescRing::ringEntries);
            ring.write32(desc + 8, 0xffffffff);  // len
            ring.write32(desc + 12, 0xffffffff); // seq
        }
        return ready;
    }
};

// The sub context and the VMCALL host return a popped packet's seq and
// len packed in one register. All ones in both must count as one
// corrupt packet, not as the empty-ring answer.
TEST_F(PathTest, ForgedRxDescriptorIsCorruptOnElisa)
{
    ForgedRxDescriptor<ElisaPath> elisa(hv, manager, guest, "nic-forged");
    EXPECT_EQ(runRx(elisa, nic, 256, 10).corrupt, 1u);
}

TEST_F(PathTest, ForgedRxDescriptorIsCorruptOnVmcall)
{
    ForgedRxDescriptor<VmcallPath> vmcall(hv, guestVm);
    EXPECT_EQ(runRx(vmcall, nic, 256, 10).corrupt, 1u);
}

TEST_F(PathTest, Vm2VmElisaBeatsVmcall)
{
    core::ElisaGuest peer2(peerVm, svc);
    ElisaPath etx(hv, manager, guest, "nic-a");
    ElisaPath erx(hv, manager, peer2, "nic-b");
    auto e = runVm2Vm(etx, erx, nic, false, 64, 10000);

    VmcallPath vtx(hv, guestVm);
    VmcallPath vrx(hv, peerVm);
    auto v = runVm2Vm(vtx, vrx, nic, false, 64, 10000);

    EXPECT_GT(e.mpps(), v.mpps());
    EXPECT_EQ(e.corrupt, 0u);
    EXPECT_EQ(v.corrupt, 0u);
}

TEST_F(PathTest, Vm2VmThroughWireIsLineRateCapped)
{
    SriovPath tx(hv, guestVm);
    SriovPath rx(hv, peerVm);
    auto r = runVm2Vm(tx, rx, nic, /*through_wire=*/true, 1472, 3000);
    const double line = 1e3 / 1196.8;
    EXPECT_NEAR(r.mpps(), line, 0.03);
}

TEST_F(PathTest, SharedNicAggregatesAcrossVms)
{
    // Two VMs on one port double the aggregate until line rate.
    net::VmcallPath p1(hv, guestVm);
    net::VmcallPath p2(hv, peerVm);
    std::vector<NetPath *> both{&p1, &p2};
    auto r = runRxShared(both, nic, 64, 10000);
    EXPECT_EQ(r.corrupt, 0u);
    // Two VMCALL receivers ~ 2 x 1.23 Mpps, well under line rate.
    EXPECT_NEAR(r.mpps(), 2.46, 0.2);

    // Direct paths saturate the wire instead of doubling.
    hv::Vm &third = hv.createVm("third", 64 * MiB);
    DirectPath d1(hv, peerVm);
    DirectPath d2(hv, third);
    std::vector<NetPath *> direct{&d1, &d2};
    nic.reset();
    auto rd = runRxShared(direct, nic, 64, 20000);
    EXPECT_NEAR(rd.mpps(), 14.2, 0.3);
}

TEST_F(PathTest, ElisaPathIsIsolatedFromGuest)
{
    ElisaPath elisa(hv, manager, guest, "nic-iso");
    // The rings live in the manager's export; the guest cannot touch
    // them from its default context.
    cpu::GuestView v(guestVm.vcpu(0));
    EXPECT_THROW(v.read<std::uint64_t>(core::objectGpa),
                 cpu::VmExitEvent);
    // But the data path works.
    auto r = runRx(elisa, nic, 64, 100);
    EXPECT_EQ(r.corrupt, 0u);
}

TEST_F(PathTest, DirectPathRingsAreExposedToGuest)
{
    DirectPath direct(hv, guestVm);
    // Table 1: direct mapping is NOT isolated — the guest can stomp on
    // the shared ring indices directly.
    cpu::GuestView v(guestVm.vcpu(0));
    EXPECT_NO_THROW(v.write<std::uint32_t>(nicRegionGpa, 0xdead));
}

} // namespace
