/**
 * @file
 * Tests for the ELISA core: export/attach negotiation, the exit-less
 * gate call, exchange buffers, timing.
 */

#include <gtest/gtest.h>

#include "base/units.hh"
#include "elisa/gate.hh"
#include "elisa/guest_api.hh"
#include "elisa/manager.hh"
#include "elisa/negotiation.hh"
#include "hv/hypervisor.hh"

namespace
{

using namespace elisa;
using namespace elisa::core;

/** Standard fixture: one manager VM, one guest VM, one export. */
class ElisaTest : public ::testing::Test
{
  protected:
    ElisaTest()
        : hv(256 * MiB), svc(hv),
          managerVm(hv.createVm("manager", 16 * MiB)),
          guestVm(hv.createVm("guest", 16 * MiB)),
          manager(managerVm, svc), guest(guestVm, svc)
    {
    }

    /** A function table with: 0 = read64(obj+arg0), 1 = write64, 2 =
     *  copy exchange->object, 3 = returns 42. */
    SharedFnTable
    basicFns()
    {
        SharedFnTable fns;
        fns.push_back([](SubCallCtx &ctx) { // 0: read64
            return ctx.view.read<std::uint64_t>(ctx.obj + ctx.arg0);
        });
        fns.push_back([](SubCallCtx &ctx) { // 1: write64
            ctx.view.write<std::uint64_t>(ctx.obj + ctx.arg0, ctx.arg1);
            return std::uint64_t{0};
        });
        fns.push_back([](SubCallCtx &ctx) { // 2: exch -> obj copy
            ctx.view.copyBytes(ctx.obj + ctx.arg0, ctx.exch + ctx.arg1,
                               ctx.arg2);
            return std::uint64_t{0};
        });
        fns.push_back([](SubCallCtx &) { // 3: constant
            return std::uint64_t{42};
        });
        return fns;
    }

    hv::Hypervisor hv;
    ElisaService svc;
    hv::Vm &managerVm;
    hv::Vm &guestVm;
    ElisaManager manager;
    ElisaGuest guest;
};

TEST_F(ElisaTest, ExportSucceeds)
{
    auto exp = manager.exportObject(ExportKey("kv"), 64 * KiB, basicFns());
    ASSERT_TRUE(exp);
    EXPECT_EQ(exp->bytes, 64 * KiB);
    EXPECT_EQ(svc.exportCount(), 1u);
    EXPECT_NE(svc.findExport("kv"), nullptr);
    EXPECT_EQ(svc.findExport("nope"), nullptr);
}

TEST_F(ElisaTest, ExportRejectsDuplicatesAndBadNames)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, basicFns()));
    EXPECT_FALSE(manager.exportObject(ExportKey("kv"), 4 * KiB, basicFns()));
    EXPECT_FALSE(manager.exportObject(ExportKey(""), 4 * KiB, basicFns()));
    EXPECT_FALSE(manager.exportObject(ExportKey(std::string(80, 'x')),
                                      4 * KiB, basicFns()));
}

TEST_F(ElisaTest, NonManagerCannotExport)
{
    // The guest VM never registered as a manager; hand-roll the
    // hypercall it would need.
    svc.stageFunctions(guestVm.id(), basicFns());
    cpu::GuestView v(guestVm.vcpu(0));
    v.writeBytes(0x1000, "evil", 4);
    cpu::HypercallArgs args;
    args.nr = static_cast<std::uint64_t>(ElisaHc::Export);
    args.arg0 = 0x1000;
    args.arg1 = 4;
    args.arg2 = 0x2000;
    args.arg3 = 4096;
    EXPECT_EQ(guestVm.vcpu(0).vmcall(args), hv::hcError);
    EXPECT_EQ(svc.exportCount(), 0u);
}

TEST_F(ElisaTest, AttachNegotiationFullFlow)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 64 * KiB, basicFns()));

    auto req = guest.requestAttach(ExportKey("kv"));
    ASSERT_TRUE(req);
    // Before the manager polls, the request is pending — the status
    // travels in the AttachResult, not a side channel.
    AttachResult pending = guest.pollAttach(*req);
    EXPECT_EQ(pending.status(), AttachStatus::Pending);
    EXPECT_FALSE(pending.ok());
    EXPECT_EQ(pending.request(), req);

    EXPECT_EQ(manager.pollRequests(), 1u);
    AttachResult attached = guest.pollAttach(*req);
    ASSERT_TRUE(attached.ok());
    EXPECT_TRUE(attached.reason().empty());
    Gate gate = attached.take();
    EXPECT_TRUE(gate.valid());
    EXPECT_EQ(svc.attachmentCount(), 1u);
    EXPECT_GT(gate.info().gateIndex, 0u);
    EXPECT_GT(gate.info().subIndex, 0u);
    EXPECT_NE(gate.info().gateIndex, gate.info().subIndex);
}

TEST_F(ElisaTest, AttachUnknownExportFails)
{
    EXPECT_FALSE(guest.requestAttach(ExportKey("missing")));
}

TEST_F(ElisaTest, ApproverPolicyDenies)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, basicFns()));
    manager.setApprover(
        [](VmId, const std::string &) { return false; });
    auto req = guest.requestAttach(ExportKey("kv"));
    ASSERT_TRUE(req);
    manager.pollRequests();
    AttachResult denied = guest.pollAttach(*req);
    EXPECT_EQ(denied.status(), AttachStatus::Denied);
    EXPECT_FALSE(denied.reason().empty());
    EXPECT_EQ(svc.attachmentCount(), 0u);
}

TEST_F(ElisaTest, GateCallReadsAndWritesObject)
{
    auto exp = manager.exportObject(ExportKey("kv"), 64 * KiB, basicFns());
    ASSERT_TRUE(exp);

    // Manager initializes the object through its own default context.
    auto mview = manager.view();
    mview.write<std::uint64_t>(exp->objectGpa + 0x80, 0x1111beef);

    auto gate = guest.tryAttach(ExportKey("kv"), manager).intoOptional();
    ASSERT_TRUE(gate);

    // Guest reads the value the manager wrote: shared access works.
    EXPECT_EQ(gate->call(0, 0x80), 0x1111beefu);

    // Guest writes; the manager sees it in its own RAM.
    EXPECT_EQ(gate->call(1, 0x90, 0x2222cafe), 0u);
    EXPECT_EQ(mview.read<std::uint64_t>(exp->objectGpa + 0x90),
              0x2222cafeu);
}

TEST_F(ElisaTest, GateCallRestoresDefaultContext)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, basicFns()));
    auto gate = guest.tryAttach(ExportKey("kv"), manager).intoOptional();
    ASSERT_TRUE(gate);
    EXPECT_EQ(guest.vcpu().activeIndex(), 0u);
    gate->call(3);
    EXPECT_EQ(guest.vcpu().activeIndex(), 0u);
    EXPECT_EQ(guest.vcpu().stats().get("elisa_calls"), 1u);
}

TEST_F(ElisaTest, GateCallCostsExactly196ns)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, basicFns()));
    auto gate = guest.tryAttach(ExportKey("kv"), manager).intoOptional();
    ASSERT_TRUE(gate);

    // fn 3 touches no memory: the pure context round trip.
    gate->call(3); // warm the gate path
    const SimNs t0 = guest.vcpu().clock().now();
    EXPECT_EQ(gate->call(3), 42u);
    EXPECT_EQ(guest.vcpu().clock().now() - t0, 196u);
    EXPECT_EQ(hv.cost().elisaRttNs(), 196u);
}

TEST_F(ElisaTest, ExchangeBufferCarriesBulkData)
{
    auto exp = manager.exportObject(ExportKey("kv"), 64 * KiB, basicFns());
    ASSERT_TRUE(exp);
    auto gate = guest.tryAttach(ExportKey("kv"), manager).intoOptional();
    ASSERT_TRUE(gate);

    const char payload[] = "bulk payload through exchange";
    gate->writeExchange(0x40, payload, sizeof(payload));
    // fn 2: copy exchange[0x40] into object[0x200].
    gate->call(2, 0x200, 0x40, sizeof(payload));

    auto mview = manager.view();
    char out[sizeof(payload)] = {};
    mview.readBytes(exp->objectGpa + 0x200, out, sizeof(out));
    EXPECT_STREQ(out, payload);
}

TEST_F(ElisaTest, BadFunctionIdFaults)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, basicFns()));
    auto gate = guest.tryAttach(ExportKey("kv"), manager).intoOptional();
    ASSERT_TRUE(gate);

    auto result = guestVm.run(0, [&] { gate->call(99); });
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.exit.reason, cpu::ExitReason::EptViolation);
    EXPECT_EQ(guest.vcpu().activeIndex(), 0u); // parked back
}

TEST_F(ElisaTest, DetachRevokesEptpEntries)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, basicFns()));
    auto gate = guest.tryAttach(ExportKey("kv"), manager).intoOptional();
    ASSERT_TRUE(gate);
    const AttachInfo info = gate->info();

    EXPECT_TRUE(guest.detach(*gate));
    EXPECT_FALSE(gate->valid());
    EXPECT_EQ(svc.attachmentCount(), 0u);
    EXPECT_FALSE(guest.vcpu().eptpList().lookup(info.gateIndex));
    EXPECT_FALSE(guest.vcpu().eptpList().lookup(info.subIndex));
    // The exchange window is gone from the default context too.
    cpu::GuestView v(guest.vcpu());
    EXPECT_THROW(v.read<std::uint64_t>(info.exchangeGuestGpa),
                 cpu::VmExitEvent);
}

TEST_F(ElisaTest, MultipleAttachmentsPerGuest)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("a"), 4 * KiB, basicFns()));
    ASSERT_TRUE(manager.exportObject(ExportKey("b"), 4 * KiB, basicFns()));
    auto ga = guest.tryAttach(ExportKey("a"), manager).intoOptional();
    auto gb = guest.tryAttach(ExportKey("b"), manager).intoOptional();
    ASSERT_TRUE(ga && gb);
    EXPECT_NE(ga->info().exchangeGuestGpa, gb->info().exchangeGuestGpa);
    EXPECT_EQ(svc.attachmentCount(), 2u);

    // Writes through gate a land in object a only.
    ga->call(1, 0, 0xaaaa);
    gb->call(1, 0, 0xbbbb);
    EXPECT_EQ(ga->call(0, 0), 0xaaaau);
    EXPECT_EQ(gb->call(0, 0), 0xbbbbu);
}

TEST_F(ElisaTest, TwoGuestsShareOneObject)
{
    hv::Vm &guest2Vm = hv.createVm("guest2", 16 * MiB);
    ElisaGuest guest2(guest2Vm, svc);

    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, basicFns()));
    auto g1 = guest.tryAttach(ExportKey("kv"), manager).intoOptional();
    auto g2 = guest2.tryAttach(ExportKey("kv"), manager).intoOptional();
    ASSERT_TRUE(g1 && g2);

    g1->call(1, 0x10, 777);
    EXPECT_EQ(g2->call(0, 0x10), 777u); // shared state visible
}

TEST_F(ElisaTest, RevokeExportInvalidatesLiveGates)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, basicFns()));
    auto gate = guest.tryAttach(ExportKey("kv"), manager).intoOptional();
    ASSERT_TRUE(gate);

    EXPECT_TRUE(svc.revokeExport("kv"));
    EXPECT_EQ(svc.attachmentCount(), 0u);
    EXPECT_EQ(svc.exportCount(), 0u);

    // The very next gate call faults on the stale EPTP index.
    auto result = guestVm.run(0, [&] { gate->call(3); });
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.exit.reason, cpu::ExitReason::VmfuncFail);
}

TEST_F(ElisaTest, SetupCostsChargedOnSlowPath)
{
    const SimNs m0 = manager.vcpu().clock().now();
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 64 * KiB, basicFns()));
    EXPECT_GT(manager.vcpu().clock().now() - m0,
              hv.cost().vmcallRttNs()); // export > bare hypercall

    const SimNs g0 = guest.vcpu().clock().now();
    auto gate = guest.tryAttach(ExportKey("kv"), manager).intoOptional();
    ASSERT_TRUE(gate);
    // Attach needs at least request+query hypercalls and hops.
    EXPECT_GT(guest.vcpu().clock().now() - g0,
              2 * hv.cost().vmcallRttNs());
}

TEST_F(ElisaTest, ManagerRevokesItsOwnExport)
{
    auto exp = manager.exportObject(ExportKey("kv"), 4 * KiB, basicFns());
    ASSERT_TRUE(exp);
    auto gate = guest.tryAttach(ExportKey("kv"), manager).intoOptional();
    ASSERT_TRUE(gate);

    // A non-owner cannot revoke it (the guest is no manager at all).
    cpu::HypercallArgs evil;
    evil.nr = static_cast<std::uint64_t>(ElisaHc::Revoke);
    evil.arg0 = exp->id;
    EXPECT_EQ(guestVm.vcpu(0).vmcall(evil), hv::hcError);
    EXPECT_EQ(svc.exportCount(), 1u);

    // The owner can.
    EXPECT_TRUE(manager.revoke(exp->id));
    EXPECT_EQ(svc.exportCount(), 0u);
    EXPECT_EQ(svc.attachmentCount(), 0u);
    auto result = guestVm.run(0, [&] { gate->call(3); });
    EXPECT_FALSE(result.ok);
    // A replayed Revoke of the id just retired is idempotent: the
    // owner re-sending after a lost reply must see success.
    EXPECT_TRUE(manager.revoke(exp->id));
    // A never-issued id still fails gracefully.
    EXPECT_FALSE(manager.revoke(exp->id + 1000));
}

TEST_F(ElisaTest, DumpStateReflectsLifecycle)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, basicFns()));
    auto gate = guest.tryAttach(ExportKey("kv"), manager).intoOptional();
    ASSERT_TRUE(gate);

    const std::string dump = svc.dumpState();
    EXPECT_NE(dump.find("'kv'"), std::string::npos);
    EXPECT_NE(dump.find("attachments: 1"), std::string::npos);
    EXPECT_NE(dump.find("exports: 1"), std::string::npos);

    guest.detach(*gate);
    EXPECT_NE(svc.dumpState().find("attachments: 0"),
              std::string::npos);
}

TEST_F(ElisaTest, MultiVcpuGuestAttachesPerVcpu)
{
    hv::Vm &smp = hv.createVm("smp", 16 * MiB, /*vcpus=*/2);
    ElisaGuest g0(smp, svc, 0);
    ElisaGuest g1(smp, svc, 1);
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, basicFns()));

    auto gate0 = g0.tryAttach(ExportKey("kv"), manager).intoOptional();
    auto gate1 = g1.tryAttach(ExportKey("kv"), manager).intoOptional();
    ASSERT_TRUE(gate0 && gate1);

    // EPTP lists are per-vCPU: vCPU 1's indices mean nothing on
    // vCPU 0 (beyond whatever IT has installed there).
    EXPECT_TRUE(smp.vcpu(0).eptpList().lookup(
        gate0->info().subIndex));
    // Both vCPUs reach the same shared object.
    gate0->call(1, 0x20, 0xabc);
    EXPECT_EQ(gate1->call(0, 0x20), 0xabcu);

    // Their clocks advance independently.
    const SimNs c0 = smp.vcpu(0).clock().now();
    gate1->call(3);
    EXPECT_EQ(smp.vcpu(0).clock().now(), c0);
}

TEST_F(ElisaTest, BatchedCallAmortizesTransition)
{
    auto exp = manager.exportObject(ExportKey("kv"), 64 * KiB, basicFns());
    ASSERT_TRUE(exp);
    auto gate = guest.tryAttach(ExportKey("kv"), manager).intoOptional();
    ASSERT_TRUE(gate);

    // Batch: write 0x10, read it back, constant.
    std::vector<core::Gate::BatchEntry> batch(3);
    batch[0] = {1, 0x10, 0x7777, 0, 0};
    batch[1] = {0, 0x10, 0, 0, 0};
    batch[2] = {3, 0, 0, 0, 0};

    gate->callBatch(batch); // warm
    const SimNs t0 = guest.vcpu().clock().now();
    ASSERT_EQ(gate->callBatch(batch), 3u);
    const SimNs elapsed = guest.vcpu().clock().now() - t0;

    // Entries executed in order with correct results.
    EXPECT_EQ(batch[1].ret, 0x7777u);
    EXPECT_EQ(batch[2].ret, 42u);

    // Only ONE 196 ns transition was paid (plus the small callee
    // memory costs), far below three separate calls.
    EXPECT_LT(elapsed, 2 * hv.cost().elisaRttNs());
    EXPECT_GE(elapsed, hv.cost().elisaRttNs());
}

TEST_F(ElisaTest, BatchedCallBadFnFaultsWholeBatch)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, basicFns()));
    auto gate = guest.tryAttach(ExportKey("kv"), manager).intoOptional();
    ASSERT_TRUE(gate);
    std::vector<core::Gate::BatchEntry> batch(2);
    batch[0] = {3, 0, 0, 0, 0};
    batch[1] = {99, 0, 0, 0, 0}; // invalid function id
    auto result = guestVm.run(0, [&] { gate->callBatch(batch); });
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(guest.vcpu().activeIndex(), 0u);
}

TEST_F(ElisaTest, DestroyingGuestVmReapsItsAttachments)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, basicFns()));
    hv::Vm &doomed = hv.createVm("doomed", 16 * MiB);
    {
        ElisaGuest dguest(doomed, svc);
        auto gate = dguest.tryAttach(ExportKey("kv"), manager).intoOptional();
        ASSERT_TRUE(gate);
        EXPECT_EQ(svc.attachmentCount(), 1u);
    }
    hv.destroyVm(doomed.id());
    EXPECT_EQ(svc.attachmentCount(), 0u);
    EXPECT_EQ(svc.exportCount(), 1u); // export survives its clients
}

TEST_F(ElisaTest, DestroyingManagerVmRevokesItsExports)
{
    hv::Vm &mgr2_vm = hv.createVm("manager2", 16 * MiB);
    {
        ElisaManager mgr2(mgr2_vm, svc);
        ASSERT_TRUE(mgr2.exportObject(ExportKey("ephemeral"), 4 * KiB,
                                      basicFns()));
        auto gate = guest.tryAttach(ExportKey("ephemeral"), mgr2).intoOptional();
        ASSERT_TRUE(gate);
        ASSERT_EQ(svc.attachmentCount(), 1u);

        hv.destroyVm(mgr2_vm.id());
        EXPECT_EQ(svc.attachmentCount(), 0u);
        EXPECT_EQ(svc.exportCount(), 0u);

        // The surviving guest's next call faults on the stale index.
        auto result = guestVm.run(0, [&] { gate->call(0, 0); });
        EXPECT_FALSE(result.ok);
        EXPECT_EQ(result.exit.reason, cpu::ExitReason::VmfuncFail);
    }
}

// ---- Capability handles: delegation, redemption, revocation -----------

TEST_F(ElisaTest, AttachCarriesRootCapability)
{
    auto exp = manager.exportObject(ExportKey("kv"), 16 * KiB, basicFns());
    ASSERT_TRUE(exp);
    AttachResult attached = guest.tryAttach(ExportKey("kv"), manager);
    ASSERT_TRUE(attached.ok());

    // The root grant covers the whole export, never expires, and is
    // registered in the hypervisor grant table at depth 0.
    const Capability cap = attached.capability();
    EXPECT_TRUE(cap.valid());
    EXPECT_EQ(cap.windowBytes(), 16 * KiB);
    EXPECT_EQ(cap.windowOffset(), 0u);
    EXPECT_EQ(cap.expiresNs(), 0u);
    EXPECT_EQ(svc.grantCount(), 1u);
    EXPECT_EQ(hv.grants().depthOf(cap.id()), 0u);

    // Gate RAII detach retires the grant with the attachment.
    { Gate gate = attached.take(); }
    EXPECT_EQ(svc.grantCount(), 0u);
    EXPECT_FALSE(hv.grants().contains(cap.id()));
}

TEST_F(ElisaTest, DelegateRedeemRoundTrip)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, basicFns()));
    AttachResult attached = guest.tryAttach(ExportKey("kv"), manager);
    ASSERT_TRUE(attached.ok());
    Gate gate = attached.take();

    hv::Vm &peer_vm = hv.createVm("peer", 16 * MiB);
    ElisaGuest peer(peer_vm, svc);

    // Delegation is one hypercall by the holder — no manager involved.
    auto child = attached.capability().delegate(peer_vm.id());
    ASSERT_TRUE(child);
    EXPECT_EQ(svc.grantCount(), 2u);
    EXPECT_EQ(hv.grants().depthOf(child->id()), 1u);
    EXPECT_EQ(hv.stats().get("elisa_delegations"), 1u);

    // The receiver redeems by id and gets an ordinary working gate.
    AttachResult redeemed = peer.redeem(*child);
    ASSERT_TRUE(redeemed.ok()) << redeemed.reason();
    EXPECT_EQ(hv.stats().get("elisa_redeems"), 1u);
    Gate peer_gate = redeemed.take();
    EXPECT_EQ(peer_gate.call(3), 42u);

    // Both gates address the same object: the delegator's write is
    // the delegatee's read.
    gate.call(1, 8, 0x5151);
    EXPECT_EQ(peer_gate.call(0, 8), 0x5151u);

    // Redeem is idempotent under replay: the same attachment answers.
    AttachResult again = peer.redeem(*child);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.gate().info().attachment,
              peer_gate.info().attachment);
    EXPECT_EQ(svc.attachmentCount(), 2u);
}

TEST_F(ElisaTest, DelegationNarrowsTheWindow)
{
    auto exp = manager.exportObject(ExportKey("kv"), 16 * KiB, basicFns());
    ASSERT_TRUE(exp);
    AttachResult attached = guest.tryAttach(ExportKey("kv"), manager);
    ASSERT_TRUE(attached.ok());
    Gate gate = attached.take();

    hv::Vm &peer_vm = hv.createVm("peer", 16 * MiB);
    ElisaGuest peer(peer_vm, svc);

    // Grant only the third page of the object, read-only.
    Capability::DelegateSpec spec;
    spec.offset = 8 * KiB;
    spec.bytes = 4 * KiB;
    spec.perms = ept::Perms::Read;
    auto child = attached.capability().delegate(peer_vm.id(), spec);
    ASSERT_TRUE(child);
    EXPECT_EQ(child->windowOffset(), 8 * KiB);
    EXPECT_EQ(child->windowBytes(), 4 * KiB);
    EXPECT_EQ(child->perms(), ept::Perms::Read);

    AttachResult redeemed = peer.redeem(*child);
    ASSERT_TRUE(redeemed.ok()) << redeemed.reason();
    EXPECT_EQ(redeemed.gate().info().objectOffset, 8 * KiB);
    EXPECT_EQ(redeemed.gate().info().objectBytes, 4 * KiB);

    // The windows alias: delegatee offset 0 is delegator offset 8 KiB.
    gate.call(1, 8 * KiB + 16, 0xfeed);
    Gate peer_gate = redeemed.take();
    EXPECT_EQ(peer_gate.call(0, 16), 0xfeedu);
}

TEST_F(ElisaTest, TransitiveRevokeTearsDownTheSubtree)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, basicFns()));
    AttachResult root = guest.tryAttach(ExportKey("kv"), manager);
    ASSERT_TRUE(root.ok());
    Gate root_gate = root.take();

    // A depth-3 chain: guest -> peer1 -> peer2 -> peer3, each hop
    // redeemed into a live gate.
    hv::Vm *peer_vm[3];
    std::vector<std::unique_ptr<ElisaGuest>> peers;
    std::vector<Capability> caps{root.capability()};
    std::vector<Gate> gates;
    for (int i = 0; i < 3; ++i) {
        peer_vm[i] = &hv.createVm("peer" + std::to_string(i), 16 * MiB);
        peers.push_back(std::make_unique<ElisaGuest>(*peer_vm[i], svc));
        auto child = caps.back().delegate(peer_vm[i]->id());
        ASSERT_TRUE(child);
        // Hand the handle over: the receiver redeems it and keeps a
        // handle bound to its own vCPU for further delegation.
        AttachResult redeemed = peers.back()->redeem(*child);
        ASSERT_TRUE(redeemed.ok()) << redeemed.reason();
        caps.push_back(redeemed.capability());
        gates.push_back(redeemed.take());
        EXPECT_EQ(gates.back().call(3), 42u);
    }
    ASSERT_EQ(svc.grantCount(), 4u);
    ASSERT_EQ(svc.attachmentCount(), 4u);
    EXPECT_EQ(hv.grants().depthOf(caps.back().id()), 3u);

    // Revoking the first delegation tears down all three hops but
    // leaves the root attachment untouched.
    std::vector<AttachInfo> infos;
    for (const Gate &g : gates)
        infos.push_back(g.info());
    EXPECT_TRUE(caps[1].revoke());
    EXPECT_EQ(svc.grantCount(), 1u);
    EXPECT_EQ(svc.attachmentCount(), 1u);
    EXPECT_EQ(hv.stats().get("elisa_cap_revokes"), 1u);
    EXPECT_EQ(hv.stats().get("elisa_grant_teardowns"), 3u);

    // Zero reachable EPTP-list entries anywhere in the subtree; every
    // torn-down gate faults instead of reaching the object.
    for (int i = 0; i < 3; ++i) {
        auto &list = peer_vm[i]->vcpu(0).eptpList();
        EXPECT_FALSE(list.lookup(infos[i].gateIndex));
        EXPECT_FALSE(list.lookup(infos[i].subIndex));
        auto result = peer_vm[i]->run(0, [&] { gates[i].call(3); });
        EXPECT_FALSE(result.ok);
        EXPECT_EQ(result.exit.reason, cpu::ExitReason::VmfuncFail);
    }
    EXPECT_EQ(root_gate.call(3), 42u);

    // Revoke replay by the issuer is idempotent, not an error.
    EXPECT_TRUE(caps[1].revoke());
    EXPECT_GE(hv.stats().get("elisa_idempotent_revokes"), 1u);
}

TEST_F(ElisaTest, ExpiredDelegationFaultsOnNextCall)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, basicFns()));
    AttachResult attached = guest.tryAttach(ExportKey("kv"), manager);
    ASSERT_TRUE(attached.ok());
    Gate gate = attached.take();

    hv::Vm &peer_vm = hv.createVm("peer", 16 * MiB);
    ElisaGuest peer(peer_vm, svc);

    // Expiry bounds are absolute simulated time; leave room for the
    // redeem's own setup charge on the peer's clock.
    Capability::DelegateSpec spec;
    spec.expiresNs = std::max(guest.vcpu().clock().now(),
                              peer_vm.vcpu(0).clock().now()) +
                     1'000'000;
    auto child = attached.capability().delegate(peer_vm.id(), spec);
    ASSERT_TRUE(child);

    AttachResult redeemed = peer.redeem(*child);
    ASSERT_TRUE(redeemed.ok()) << redeemed.reason();
    Gate peer_gate = redeemed.take();
    EXPECT_EQ(peer_gate.call(3), 42u);

    // Lazy expiry: the first gate entry at or past the lapse instant
    // finds the grant (and its EPTP-list entries) gone and faults.
    peer_vm.vcpu(0).clock().advance(2'000'000);
    auto result = peer_vm.run(0, [&] { peer_gate.call(3); });
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.exit.reason, cpu::ExitReason::VmfuncFail);
    EXPECT_EQ(hv.stats().get("elisa_cap_expiries"), 1u);
    EXPECT_EQ(svc.grantCount(), 1u);
    EXPECT_EQ(svc.attachmentCount(), 1u);

    // The never-expiring root is untouched by its child's lapse.
    EXPECT_EQ(gate.call(3), 42u);
}

TEST_F(ElisaTest, DelegatedGateCostsExactlyWhatADirectGateCosts)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, basicFns()));
    AttachResult attached = guest.tryAttach(ExportKey("kv"), manager);
    ASSERT_TRUE(attached.ok());
    Gate direct = attached.take();

    hv::Vm &peer_vm = hv.createVm("peer", 16 * MiB);
    ElisaGuest peer(peer_vm, svc);
    auto child = attached.capability().delegate(peer_vm.id());
    ASSERT_TRUE(child);
    Gate delegated = peer.redeem(*child).take();

    // The redeemed gate takes the identical exit-less VMFUNC path: the
    // per-call cost is the same 196 ns, never-expiring grants pay no
    // expiry-check time, and no VM exit is charged.
    direct.call(3);    // warm
    delegated.call(3); // warm
    const SimNs d0 = guest.vcpu().clock().now();
    EXPECT_EQ(direct.call(3), 42u);
    const SimNs direct_ns = guest.vcpu().clock().now() - d0;

    const std::uint64_t vmcalls0 =
        peer_vm.vcpu(0).stats().get("vmcall");
    const SimNs t0 = peer_vm.vcpu(0).clock().now();
    EXPECT_EQ(delegated.call(3), 42u);
    const SimNs delegated_ns = peer_vm.vcpu(0).clock().now() - t0;

    EXPECT_EQ(direct_ns, hv.cost().elisaRttNs());
    EXPECT_EQ(delegated_ns, direct_ns);
    EXPECT_EQ(peer_vm.vcpu(0).stats().get("vmcall"), vmcalls0);
}

} // namespace
