/**
 * @file
 * Security-property tests: the Table-1 claims, demonstrated on the
 * access path rather than asserted.
 *
 *   direct-mapping      shared, NOT isolated (a compromised guest can
 *                       trash its peers' view);
 *   host-interposition  isolated (host checks), expensive;
 *   ELISA               isolated: guests only reach the object through
 *                       hypervisor-installed EPT contexts, and every
 *                       escape attempt faults.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "base/units.hh"
#include "elisa/gate.hh"
#include "elisa/guest_api.hh"
#include "elisa/manager.hh"
#include "elisa/negotiation.hh"
#include "frame_checks.hh"
#include "hv/hypervisor.hh"
#include "hv/ivshmem.hh"
#include "hv/paging.hh"
#include "hv/telemetry_publisher.hh"
#include "sim/metrics.hh"

namespace
{

using namespace elisa;
using namespace elisa::core;

class IsolationTest : public ::testing::Test
{
  protected:
    IsolationTest()
        : hv(256 * MiB), svc(hv),
          managerVm(hv.createVm("manager", 16 * MiB)),
          victimVm(hv.createVm("victim", 16 * MiB)),
          attackerVm(hv.createVm("attacker", 16 * MiB)),
          manager(managerVm, svc), victim(victimVm, svc),
          attacker(attackerVm, svc)
    {
    }

    SharedFnTable
    fns()
    {
        SharedFnTable t;
        t.push_back([](SubCallCtx &ctx) {
            return ctx.view.read<std::uint64_t>(ctx.obj + ctx.arg0);
        });
        t.push_back([](SubCallCtx &ctx) {
            ctx.view.write<std::uint64_t>(ctx.obj + ctx.arg0, ctx.arg1);
            return std::uint64_t{0};
        });
        return t;
    }

    hv::Hypervisor hv;
    ElisaService svc;
    hv::Vm &managerVm;
    hv::Vm &victimVm;
    hv::Vm &attackerVm;
    ElisaManager manager;
    ElisaGuest victim;
    ElisaGuest attacker;
};

// ---- Frames passing from a dead VM to the next ---------------------

TEST_F(IsolationTest, SuccessorVmOnADeadVmsFramesReadsZero)
{
    constexpr std::uint64_t ram = 16 * MiB;
    hv::Vm &tenant = hv.createVm("tenant", ram);
    const Hpa frames = tenant.ramGpaToHpa(0);
    const std::vector<std::uint8_t> secret(ram, 0xc5);
    cpu::GuestView(tenant.vcpu(0)).writeBytes(0, secret.data(), ram);
    hv.destroyVm(tenant.id());

    hv::Vm &successor = hv.createVm("successor", ram);
    ASSERT_EQ(successor.ramGpaToHpa(0), frames);
    std::vector<std::uint8_t> seen(ram, 0xff);
    cpu::GuestView(successor.vcpu(0)).readBytes(0, seen.data(), ram);
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 0),
              static_cast<std::ptrdiff_t>(ram));
    // Every write path marked the lines it wrote.
    EXPECT_TRUE(test::unwrittenLinesWithBytes(hv.memory()).empty());
}

// ---- Whole-machine line audit over VM churn ------------------------

/**
 * VM lifecycles on a small machine until rotating first fit has wrapped
 * twice, with the line audit after every step: no create, attach, gate
 * call, write, detach or destroy may leave a non-zero byte in a line
 * that zeroWritten would skip. Writes end one byte into a line or page
 * through every mutable path: HostMemory, GuestView, the gate's
 * exchange buffer and shared functions, an ivshmem region, a telemetry
 * sink and, every other round, the pager's poisoning, page-outs and
 * page-ins. RAM of 257 pages and a region of 65 map a last EPT entry
 * that opens a line of its leaf table.
 */
TEST(LineAuditChurn, NoStepLeavesBytesInUnwrittenLines)
{
    hv::Hypervisor hv(8 * MiB);
    hv::Pager &pager = hv.enablePaging({8, 256});
    ElisaService svc(hv);
    hv::Vm &managerVm = hv.createVm("manager", 1 * MiB);
    ElisaManager manager(managerVm, svc);
    SharedFnTable fns;
    fns.push_back([](SubCallCtx &ctx) { // object[arg0..] = exch[0, arg1)
        ctx.view.copyBytes(ctx.obj + ctx.arg0, ctx.exch, ctx.arg1);
        return std::uint64_t{0};
    });
    fns.push_back([](SubCallCtx &ctx) { // object[arg0] = arg1
        ctx.view.write<std::uint64_t>(ctx.obj + ctx.arg0, ctx.arg1);
        return std::uint64_t{0};
    });
    const ExportKey key("audit");
    ASSERT_TRUE(manager.exportObject(key, 3 * pageSize, fns));

    std::vector<std::uint8_t> bytes(3 * pageSize);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(1 + i % 251);
    constexpr std::uint64_t ones = ~std::uint64_t{0};
    constexpr Gpa shmGpa = 0x40000000;
    sim::Metrics metrics;
    int round = 0;
    const auto audit = [&](const char *step) {
        const std::vector<std::uint64_t> bad =
            test::unwrittenLinesWithBytes(hv.memory());
        if (bad.empty())
            return ::testing::AssertionSuccess();
        return ::testing::AssertionFailure()
               << "round " << round << ", after " << step << ": "
               << bad.size() << " lines, the first line " << bad[0] % 64
               << " of frame " << bad[0] / 64;
    };

    Hpa lastProbe = 0;
    for (unsigned wraps = 0; wraps < 2; ++round) {
        ASSERT_LT(round, 200);
        hv::Vm &vm = hv.createVm("tenant", MiB + pageSize);
        if (round % 2 == 1)
            pager.manageVmRam(vm, true);
        ASSERT_TRUE(audit("create"));
        {
            hv::IvshmemRegion shm(hv, "shm", 65 * pageSize);
            ASSERT_TRUE(shm.attach(vm, shmGpa));
            ASSERT_TRUE(audit("ivshmem attach"));
            ElisaGuest guest(vm, svc);
            AttachResult attached = guest.tryAttach(key, manager);
            ASSERT_TRUE(attached.ok());
            Gate gate = attached.take();
            ASSERT_TRUE(audit("attach"));

            gate.writeExchange(63, bytes.data(), 66);
            ASSERT_TRUE(audit("exchange write"));
            gate.call(0, pageSize - 1, 66);
            ASSERT_TRUE(audit("gate copy"));
            gate.call(1, 2 * pageSize - 7, ones);
            ASSERT_TRUE(audit("gate store"));

            cpu::GuestView view(vm.vcpu(0));
            view.writeBytes(pageSize - 1, bytes.data(), 66);
            view.write<std::uint64_t>(3 * pageSize - 7, ones);
            // More pages than the Pager's budget: pages 0-3 go out and
            // come back in for the copy.
            for (Gpa page = 8; page < 18; ++page)
                view.write<std::uint64_t>(page * pageSize + 57, ones);
            view.copyBytes(5 * pageSize + 63, pageSize - 1, 2 * pageSize + 2);
            view.writeBytes(shmGpa + 127, bytes.data(), 2 * pageSize + 2);
            view.zeroBytes(shmGpa + 8 * pageSize + 1, 64);
            ASSERT_TRUE(audit("guest writes"));

            mem::HostMemory &pm = hv.memory();
            pm.write64(shm.base() + 12 * pageSize - 7, ones);
            pm.write(shm.base() + 13 * pageSize - 1, bytes.data(),
                     pageSize + 2);
            std::memset(pm.raw(shm.base() + 16 * pageSize + 1, 64), 0xa5,
                        64);
            pm.zero(shm.base() + 17 * pageSize + 1, 64);
            ASSERT_TRUE(audit("host writes"));

            hv::TelemetryPublisher publisher(hv, metrics);
            publisher.addSink(shm.base() + 20 * pageSize, 4 * pageSize,
                              "audit");
            publisher.publish(1000 + round);
            ASSERT_TRUE(audit("telemetry publish"));

            ASSERT_TRUE(gate.detach());
            ASSERT_TRUE(audit("detach"));
            shm.detach(vm, shmGpa);
        }
        ASSERT_TRUE(audit("ivshmem free"));
        hv.destroyVm(vm.id());
        ASSERT_TRUE(audit("destroy"));

        // A probe frame lands where rotating first fit stands.
        const std::optional<Hpa> probe = hv.allocator().alloc();
        ASSERT_TRUE(probe);
        hv.allocator().free(*probe);
        wraps += *probe < lastProbe;
        lastProbe = *probe;
    }
    EXPECT_GT(round, 4);
    EXPECT_GT(hv.stats().get("pager_pages_swapped_out"), 0u);
    EXPECT_GT(hv.stats().get("pager_pages_swapped_in"), 0u);
}

// ---- The direct-mapping hazard the paper motivates -----------------

TEST_F(IsolationTest, DirectMappingIsNotIsolated)
{
    hv::IvshmemRegion shm(hv, "shared", 64 * KiB);
    const Gpa where = 0x40000000;
    ASSERT_TRUE(shm.attach(victimVm, where));
    ASSERT_TRUE(shm.attach(attackerVm, where));

    // Victim stores data; a compromised attacker VM can overwrite it
    // wholesale — no mechanism intervenes.
    cpu::GuestView vv(victimVm.vcpu(0)), av(attackerVm.vcpu(0));
    vv.write<std::uint64_t>(where, 0x600d);
    av.write<std::uint64_t>(where, 0xbad);
    EXPECT_EQ(vv.read<std::uint64_t>(where), 0xbadu);

    shm.detach(victimVm, where);
    shm.detach(attackerVm, where);
}

// ---- ELISA isolation properties ---------------------------------------

TEST_F(IsolationTest, GuestCannotTouchManagerObjectFromDefaultContext)
{
    auto exp = manager.exportObject(ExportKey("obj"), 4 * KiB, fns());
    ASSERT_TRUE(exp);
    auto gate = victim.tryAttach(ExportKey("obj"), manager).intoOptional();
    ASSERT_TRUE(gate);

    cpu::GuestView v(victimVm.vcpu(0));
    // The object GPA window only exists inside the sub context; from
    // the default context it is unmapped address space.
    EXPECT_THROW(v.read<std::uint64_t>(objectGpa), cpu::VmExitEvent);
    // The manager's RAM is likewise unreachable.
    EXPECT_THROW(v.read<std::uint64_t>(exp->objectGpa + (1ull << 40)),
                 cpu::VmExitEvent);
}

TEST_F(IsolationTest, UnattachedGuestCannotVmfuncAnywhere)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("obj"), 4 * KiB, fns()));
    auto gate = victim.tryAttach(ExportKey("obj"), manager).intoOptional();
    ASSERT_TRUE(gate);

    // The attacker guesses the victim's indices: its own EPTP list
    // has no such entries, so the switch faults.
    auto result = attackerVm.run(0, [&] {
        attackerVm.vcpu(0).vmfunc(0, gate->info().subIndex);
    });
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.exit.reason, cpu::ExitReason::VmfuncFail);
}

TEST_F(IsolationTest, DirectVmfuncToSubContextStrandsTheGuest)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("obj"), 4 * KiB, fns()));
    auto gate = victim.tryAttach(ExportKey("obj"), manager).intoOptional();
    ASSERT_TRUE(gate);

    // A malicious guest skips the gate and VMFUNCs straight into the
    // sub context. The switch itself succeeds (the entry is in its
    // list), but its own code/data pages are not mapped there: the
    // very next fetch from its own RAM faults.
    auto result = victimVm.run(0, [&] {
        cpu::Vcpu &cpu = victimVm.vcpu(0);
        cpu.vmfunc(0, gate->info().subIndex);
        cpu::GuestView view(cpu);
        view.fetchCheck(0x1000); // its own code address
    });
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.exit.reason, cpu::ExitReason::EptViolation);
    EXPECT_TRUE(result.exit.violation.notMapped);
    // The fault policy parked it back in the default context.
    EXPECT_EQ(victimVm.vcpu(0).activeIndex(), 0u);
}

TEST_F(IsolationTest, SubContextCodeCannotReachGuestRam)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("obj"), 4 * KiB, fns()));
    auto gate = victim.tryAttach(ExportKey("obj"), manager).intoOptional();
    ASSERT_TRUE(gate);

    // Even *trusted* shared code cannot read the caller's RAM: GPA
    // 0x1000 (guest RAM) is unmapped in the sub context. A leak
    // through a compromised shared function is thus impossible.
    SharedFnTable leak;
    leak.push_back([](SubCallCtx &ctx) {
        return ctx.view.read<std::uint64_t>(0x1000);
    });
    // Splice the leaky table in via a second export.
    ASSERT_TRUE(manager.exportObject(ExportKey("leaky"), 4 * KiB,
                                     std::move(leak)));
    auto leaky_gate = victim.tryAttach(ExportKey("leaky"), manager).intoOptional();
    ASSERT_TRUE(leaky_gate);

    auto result = victimVm.run(0, [&] { leaky_gate->call(0); });
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.exit.reason, cpu::ExitReason::EptViolation);
}

TEST_F(IsolationTest, ExchangeBuffersArePrivatePerAttachment)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("obj"), 4 * KiB, fns()));
    auto g_victim = victim.tryAttach(ExportKey("obj"), manager).intoOptional();
    auto g_attacker = attacker.tryAttach(ExportKey("obj"), manager).intoOptional();
    ASSERT_TRUE(g_victim && g_attacker);

    const char secret[] = "victim secret";
    g_victim->writeExchange(0, secret, sizeof(secret));

    // The attacker's exchange window is a different buffer: reading
    // its own window never reveals the victim's data...
    char probe[sizeof(secret)] = {};
    g_attacker->readExchange(0, probe, sizeof(probe));
    EXPECT_STRNE(probe, secret);

    // ...and probing the victim's window GPA from the attacker VM hits
    // (at most) the attacker's own buffer, never the victim's bytes.
    cpu::GuestView av(attackerVm.vcpu(0));
    char probe2[sizeof(secret)] = {};
    av.readBytes(g_victim->info().exchangeGuestGpa, probe2,
                 sizeof(probe2));
    EXPECT_STRNE(probe2, secret);

    // Within one VM, distinct attachments get distinct window GPAs.
    auto g_second = victim.tryAttach(ExportKey("obj"), manager).intoOptional();
    ASSERT_TRUE(g_second);
    EXPECT_NE(g_second->info().exchangeGuestGpa,
              g_victim->info().exchangeGuestGpa);
}

TEST_F(IsolationTest, ReadOnlyExportRejectsWrites)
{
    auto exp = manager.exportObject(ExportKey("ro"), 4 * KiB, fns(),
                                    ept::Perms::Read);
    ASSERT_TRUE(exp);
    manager.view().write<std::uint64_t>(exp->objectGpa, 0x1234);

    auto gate = victim.tryAttach(ExportKey("ro"), manager).intoOptional();
    ASSERT_TRUE(gate);
    EXPECT_EQ(gate->call(0, 0), 0x1234u); // reads fine

    auto result = victimVm.run(0, [&] { gate->call(1, 0, 0xbad); });
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.exit.reason, cpu::ExitReason::EptViolation);
    EXPECT_EQ(result.exit.violation.access, ept::Access::Write);
    // The object is untouched.
    EXPECT_EQ(manager.view().read<std::uint64_t>(exp->objectGpa),
              0x1234u);
}

TEST_F(IsolationTest, PerClientPermissionGrants)
{
    // One RW export; the victim gets RW, the attacker only R.
    auto exp = manager.exportObject(ExportKey("shared"), 4 * KiB, fns());
    ASSERT_TRUE(exp);
    manager.setPermsPolicy(
        [&](VmId vm, const std::string &)
            -> std::optional<ept::Perms> {
            return vm == victimVm.id() ? ept::Perms::RW
                                       : ept::Perms::Read;
        });

    auto g_rw = victim.tryAttach(ExportKey("shared"), manager).intoOptional();
    auto g_ro = attacker.tryAttach(ExportKey("shared"), manager).intoOptional();
    ASSERT_TRUE(g_rw && g_ro);

    // Writer writes; reader reads — shared state, asymmetric rights.
    EXPECT_EQ(g_rw->call(1, 0x10, 0x5a5a), 0u);
    EXPECT_EQ(g_ro->call(0, 0x10), 0x5a5au);

    // The read-only client's writes fault at the EPT.
    auto result = attackerVm.run(0, [&] { g_ro->call(1, 0x10, 1); });
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.exit.reason, cpu::ExitReason::EptViolation);
    EXPECT_EQ(result.exit.violation.access, ept::Access::Write);
    EXPECT_EQ(g_rw->call(0, 0x10), 0x5a5au); // data intact
}

TEST_F(IsolationTest, PermissionEscalationRefused)
{
    // A read-only export cannot be granted RW, even by its manager.
    ASSERT_TRUE(manager.exportObject(ExportKey("ro-only"), 4 * KiB, fns(),
                                     ept::Perms::Read));
    manager.setPermsPolicy(
        [](VmId, const std::string &) -> std::optional<ept::Perms> {
            return ept::Perms::RW; // illegal escalation attempt
        });
    auto req = victim.requestAttach(ExportKey("ro-only"));
    ASSERT_TRUE(req);
    manager.pollRequests();
    // The Approve hypercall is refused; the request stays pending.
    EXPECT_EQ(victim.pollAttach(*req).status(), AttachStatus::Pending);
    EXPECT_EQ(svc.attachmentCount(), 0u);
}

TEST_F(IsolationTest, DetachedIndexCannotBeReplayed)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("obj"), 4 * KiB, fns()));
    auto gate = victim.tryAttach(ExportKey("obj"), manager).intoOptional();
    ASSERT_TRUE(gate);
    const EptpIndex stale = gate->info().subIndex;
    ASSERT_TRUE(victim.detach(*gate));

    auto result = victimVm.run(0, [&] {
        victimVm.vcpu(0).vmfunc(0, stale);
    });
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.exit.reason, cpu::ExitReason::VmfuncFail);
}

TEST_F(IsolationTest, TlbDoesNotLeakAcrossRevocation)
{
    auto exp = manager.exportObject(ExportKey("obj"), 4 * KiB, fns());
    ASSERT_TRUE(exp);
    auto gate = victim.tryAttach(ExportKey("obj"), manager).intoOptional();
    ASSERT_TRUE(gate);

    // Warm the victim's TLB with sub-context translations.
    gate->call(1, 0, 0x111);
    EXPECT_EQ(gate->call(0, 0), 0x111u);

    // Revoke. The cached translations must not survive.
    ASSERT_TRUE(victim.detach(*gate));
    auto result = victimVm.run(0, [&] {
        cpu::GuestView v(victimVm.vcpu(0));
        v.read<std::uint64_t>(objectGpa);
    });
    EXPECT_FALSE(result.ok);
}

TEST_F(IsolationTest, GuestCannotDetachForeignAttachment)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("obj"), 4 * KiB, fns()));
    auto gate = victim.tryAttach(ExportKey("obj"), manager).intoOptional();
    ASSERT_TRUE(gate);

    cpu::HypercallArgs args;
    args.nr = static_cast<std::uint64_t>(ElisaHc::Detach);
    args.arg0 = gate->info().attachment;
    EXPECT_EQ(attackerVm.vcpu(0).vmcall(args), hv::hcError);
    EXPECT_EQ(svc.attachmentCount(), 1u); // still alive

    // The rightful owner still works.
    EXPECT_NO_THROW(gate->call(0, 0));
}

TEST_F(IsolationTest, GuestCannotApproveItsOwnRequest)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("obj"), 4 * KiB, fns()));
    auto req = attacker.requestAttach(ExportKey("obj"));
    ASSERT_TRUE(req);

    cpu::HypercallArgs args;
    args.nr = static_cast<std::uint64_t>(ElisaHc::Approve);
    args.arg0 = *req;
    EXPECT_EQ(attackerVm.vcpu(0).vmcall(args), hv::hcError);
    EXPECT_EQ(svc.attachmentCount(), 0u);
}

TEST_F(IsolationTest, HostInterpositionIsIsolatedButCostly)
{
    // Baseline sanity for Table 1: a VMCALL-mediated access is checked
    // by the host (isolated) but costs the full exit round trip.
    auto exp = manager.exportObject(ExportKey("obj"), 4 * KiB, fns());
    ASSERT_TRUE(exp);
    const Hpa obj_hpa = managerVm.ramGpaToHpa(exp->objectGpa);

    hv.registerHypercall(0x300, [&](cpu::Vcpu &vcpu,
                                    const cpu::HypercallArgs &args) {
        // Host-side bounds check = the interposition.
        if (args.arg0 + 8 > 4096)
            return hv::hcError;
        vcpu.clock().advance(hv.cost().memAccessNs);
        return hv.memory().read64(obj_hpa + args.arg0);
    });

    manager.view().write<std::uint64_t>(exp->objectGpa + 8, 0x77);
    cpu::Vcpu &cpu = victimVm.vcpu(0);
    const SimNs t0 = cpu.clock().now();
    EXPECT_EQ(cpu.vmcall(hv::hcArgs(static_cast<hv::Hc>(0x300), 8)),
              0x77u);
    EXPECT_GE(cpu.clock().now() - t0, hv.cost().vmcallRttNs());
    // Out-of-bounds is refused by the host.
    EXPECT_EQ(cpu.vmcall(hv::hcArgs(static_cast<hv::Hc>(0x300), 9000)),
              hv::hcError);
}

} // namespace
