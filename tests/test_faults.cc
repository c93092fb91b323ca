/**
 * @file
 * Fault-injection tests: the deterministic FaultPlan, the hypercall
 * fault actions (drop / delay / duplicate / error / kill), the
 * protocol-step kill matrix (either party dies at every negotiation
 * step and the machine converges to a clean state), gate staleness,
 * and the recovery machinery (timeouts, retry/backoff, manager-death
 * auto-revocation).
 */

#include <gtest/gtest.h>

#include <string>

#include "base/units.hh"
#include "elisa/gate.hh"
#include "elisa/guest_api.hh"
#include "elisa/manager.hh"
#include "elisa/negotiation.hh"
#include "cpu/guest_view.hh"
#include "hv/hypervisor.hh"
#include "hv/paging.hh"
#include "kvs/cluster.hh"
#include "sim/exit_ledger.hh"
#include "sim/fault.hh"
#include "sim/flight_recorder.hh"
#include "sim/tracer.hh"

namespace
{

using namespace elisa;
using namespace elisa::core;

std::uint64_t
nr(ElisaHc hc)
{
    return static_cast<std::uint64_t>(hc);
}

/** A minimal function table: fn 0 returns 42. */
SharedFnTable
constFns()
{
    SharedFnTable fns;
    fns.push_back([](SubCallCtx &) { return std::uint64_t{42}; });
    return fns;
}

// ===================================================================
// The protocol-step kill matrix.
//
// Every negotiation step is driven with raw hypercalls, each wrapped
// in Vm::run so an injected death of the *caller* unwinds exactly like
// a hardware VM exit. A scripted FaultPlan kills one party at one
// step; afterwards the world must have converged: no attachment or
// request survives, no EPTP-list entry dangles, the surviving guest
// observes a defined error (never a hang), and destroying the
// remaining VMs returns the frame allocator to its baseline.
// ===================================================================

/** Drives one full negotiation against a fresh machine. */
class ProtocolDriver
{
  public:
    ProtocolDriver(hv::Hypervisor &hv, ElisaService &service)
        : hyper(hv), svc(service)
    {
        hv::Vm &mgr = hv.createVm("manager", 16 * MiB);
        hv::Vm &gst = hv.createVm("guest", 16 * MiB);
        managerId = mgr.id();
        guestId = gst.id();

        mgrScratch = *mgr.allocGuestMem(pageSize);
        mgrObject = *mgr.allocGuestMem(4 * KiB);
        gstScratch = *gst.allocGuestMem(pageSize);

        // Stage the export name and function table up front so no
        // step needs guest memory writes after a kill.
        cpu::GuestView mv(mgr.vcpu(0));
        mv.writeBytes(mgrScratch, "obj", 3);
        cpu::GuestView gv(gst.vcpu(0));
        gv.writeBytes(gstScratch, "obj", 3);
        svc.stageFunctions(managerId, constFns());
    }

    /**
     * Issue one hypercall from @p actor, skipping silently when the
     * actor is already dead, and reaping any deferred kill afterwards.
     * @return the hypercall's rax, or hv::hcError when skipped or the
     *         caller died mid-call.
     */
    std::uint64_t
    step(VmId actor, const cpu::HypercallArgs &args)
    {
        std::uint64_t rc = hv::hcError;
        if (hyper.hasVm(actor)) {
            hv::Vm &vm = hyper.vm(actor);
            vm.run(0, [&] { rc = vm.vcpu(0).vmcall(args); });
        }
        hyper.reapKilledVms();
        return rc;
    }

    /** Run the whole protocol, tolerating failure at every step. */
    void
    runAll()
    {
        cpu::HypercallArgs args;
        args.nr = nr(ElisaHc::RegisterManager);
        step(managerId, args);

        args = {};
        args.nr = nr(ElisaHc::Export);
        args.arg0 = mgrScratch;
        args.arg1 = 3;
        args.arg2 = mgrObject;
        args.arg3 = 4 * KiB;
        step(managerId, args);

        args = {};
        args.nr = nr(ElisaHc::AttachRequest);
        args.arg0 = gstScratch;
        args.arg1 = 3;
        const std::uint64_t req = step(guestId, args);
        if (req != hv::hcError && req != hv::hcBusy)
            rid = static_cast<RequestId>(req);

        args = {};
        args.nr = nr(ElisaHc::NextRequest);
        args.arg0 = mgrScratch;
        step(managerId, args);

        if (rid) {
            args = {};
            args.nr = nr(ElisaHc::Approve);
            args.arg0 = *rid;
            step(managerId, args);

            args = {};
            args.nr = nr(ElisaHc::Query);
            args.arg0 = *rid;
            args.arg1 = gstScratch;
            const std::uint64_t state = step(guestId, args);
            if (state ==
                static_cast<std::uint64_t>(RequestState::Approved) &&
                hyper.hasVm(guestId)) {
                cpu::GuestView gv(hyper.vm(guestId).vcpu(0));
                wire = gv.read<WireAttachResult>(gstScratch);
            }
        }

        if (wire && hyper.hasVm(guestId)) {
            // Exercise the data path; a revoked attachment faults.
            hv::Vm &gst = hyper.vm(guestId);
            Gate gate(gst.vcpu(0), svc, wire->info);
            gst.run(0, [&] { gate.call(0); });
            hyper.reapKilledVms();
        }

        if (wire) {
            args = {};
            args.nr = nr(ElisaHc::Detach);
            args.arg0 = wire->info.attachment;
            step(guestId, args);
        }
    }

    hv::Hypervisor &hyper;
    ElisaService &svc;
    VmId managerId = invalidVmId;
    VmId guestId = invalidVmId;
    Gpa mgrScratch = 0;
    Gpa mgrObject = 0;
    Gpa gstScratch = 0;
    std::optional<RequestId> rid;
    std::optional<WireAttachResult> wire;
};

TEST(FaultKillMatrix, EveryStepSurvivesEitherPartyDying)
{
    const ElisaHc steps[] = {
        ElisaHc::RegisterManager, ElisaHc::Export,
        ElisaHc::AttachRequest,   ElisaHc::NextRequest,
        ElisaHc::Approve,         ElisaHc::Query,
        ElisaHc::Detach,
    };

    for (const ElisaHc killStep : steps) {
        for (const bool killManager : {true, false}) {
            SCOPED_TRACE(std::string("kill ") +
                         (killManager ? "manager" : "guest") +
                         " at hc 0x" +
                         std::to_string(nr(killStep)));

            hv::Hypervisor hv(256 * MiB);
            sim::Tracer tracer(4096);
            sim::ExitLedger ledger;
            sim::FlightRecorder recorder(64);
            hv.setTracer(&tracer);
            hv.setLedger(&ledger);
            hv.setFlightRecorder(&recorder);
            ElisaService svc(hv);
            const std::uint64_t baseline = hv.allocator().allocated();

            ProtocolDriver drv(hv, svc);
            sim::FaultPlan plan;
            plan.killVmAt(nr(killStep),
                          killManager ? drv.managerId : drv.guestId);
            hv.setFaultPlan(&plan);

            drv.runAll();
            hv.reapKilledVms();

            // The targeted victim is gone (the rule fires unless the
            // protocol never reached the step, e.g. Approve/Query/
            // Detach after an earlier collapse).
            if (plan.injectedCount() > 0) {
                EXPECT_FALSE(hv.hasVm(killManager ? drv.managerId
                                                  : drv.guestId));
            }

            // Converged: nothing half-torn-down survives.
            EXPECT_EQ(svc.attachmentCount(), 0u);
            EXPECT_EQ(svc.requestCount(), 0u);
            if (!hv.hasVm(drv.managerId)) {
                EXPECT_EQ(svc.exportCount(), 0u);
            }

            // A surviving guest is unblocked: a fresh Query of its
            // request id yields a defined error, never Pending.
            if (drv.rid && hv.hasVm(drv.guestId)) {
                cpu::HypercallArgs q;
                q.nr = nr(ElisaHc::Query);
                q.arg0 = *drv.rid;
                q.arg1 = drv.gstScratch;
                const std::uint64_t state =
                    hv.vm(drv.guestId).vcpu(0).vmcall(q);
                EXPECT_NE(
                    state,
                    static_cast<std::uint64_t>(RequestState::Pending));
            }

            // No dangling EPTP-list entries on a surviving guest.
            if (drv.wire && hv.hasVm(drv.guestId)) {
                auto &list = hv.vm(drv.guestId).vcpu(0).eptpList();
                EXPECT_FALSE(list.lookup(drv.wire->info.gateIndex));
                EXPECT_FALSE(list.lookup(drv.wire->info.subIndex));
            }

            // Every fault-killed VM left a post-mortem annotated with
            // its kill site, with conserved ledger deltas.
            if (plan.injectedCount() > 0) {
                const VmId victim =
                    killManager ? drv.managerId : drv.guestId;
                ASSERT_TRUE(recorder.hasPostMortem(victim));
                EXPECT_TRUE(recorder.postMortemConserved(victim));
                EXPECT_NE(recorder.postMortem(victim).find(
                              "fault_kill@hypercall"),
                          std::string::npos);
            }

            // No leaked frames once the survivors are destroyed.
            for (const VmId id : {drv.managerId, drv.guestId}) {
                if (hv.hasVm(id))
                    hv.destroyVm(id);
            }
            EXPECT_EQ(hv.allocator().allocated(), baseline);

            // Plain teardowns dump too: by now both parties have a
            // conserved post-mortem regardless of how they died.
            for (const VmId id : {drv.managerId, drv.guestId}) {
                EXPECT_TRUE(recorder.hasPostMortem(id));
                EXPECT_TRUE(recorder.postMortemConserved(id));
            }
        }
    }
}

// ===================================================================
// The delegation kill matrix.
//
// A delegator holding a root capability hands a grant to a delegatee,
// which redeems it; the delegator then revokes. A scripted FaultPlan
// kills one of the three parties (delegator, delegatee, manager) at
// one of the three capability hypercalls (Delegate, Redeem,
// CapRevoke). Afterwards the world must have converged through the
// one unified teardown path: the delegated grant never survives, the
// grant table and the service agree, EPTP-list reachability matches
// grant liveness exactly, and the ExitLedger's double-entry
// conservation holds across the whole episode.
// ===================================================================

TEST(CapabilityKillMatrix, DelegationStepsSurviveAnyPartyDying)
{
    const ElisaHc steps[] = {ElisaHc::Delegate, ElisaHc::Redeem,
                             ElisaHc::CapRevoke};
    enum class Victim
    {
        Delegator,
        Delegatee,
        Manager
    };
    const Victim victims[] = {Victim::Delegator, Victim::Delegatee,
                              Victim::Manager};
    const char *victimNames[] = {"delegator", "delegatee", "manager"};

    for (const ElisaHc killStep : steps) {
        for (const Victim victim : victims) {
            SCOPED_TRACE(
                std::string("kill ") +
                victimNames[static_cast<int>(victim)] + " at hc 0x" +
                std::to_string(nr(killStep)));

            hv::Hypervisor hv(256 * MiB);
            sim::ExitLedger ledger;
            hv.setLedger(&ledger);
            sim::Tracer tracer(4096);
            sim::FlightRecorder recorder(64);
            hv.setTracer(&tracer);
            hv.setFlightRecorder(&recorder);
            ElisaService svc(hv);
            const std::uint64_t baseline = hv.allocator().allocated();

            hv::Vm &mgr_vm = hv.createVm("manager", 16 * MiB);
            hv::Vm &a_vm = hv.createVm("delegator", 16 * MiB);
            hv::Vm &b_vm = hv.createVm("delegatee", 16 * MiB);
            const VmId mgrId = mgr_vm.id();
            const VmId aId = a_vm.id();
            const VmId bId = b_vm.id();
            ElisaManager manager(mgr_vm, svc);
            ElisaGuest a(a_vm, svc);

            ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB,
                                             constFns()));
            AttachResult root = a.tryAttach(ExportKey("kv"), manager);
            ASSERT_TRUE(root.ok());
            Gate root_gate = root.take();
            const Capability cap = root.capability();
            EXPECT_EQ(root_gate.call(0), 42u); // GateLeg ledger rows
            const Gpa b_scratch = *b_vm.allocGuestMem(pageSize);

            sim::FaultPlan plan;
            const VmId victimId = victim == Victim::Delegator ? aId
                                  : victim == Victim::Delegatee
                                      ? bId
                                      : mgrId;
            plan.killVmAt(nr(killStep), victimId);
            hv.setFaultPlan(&plan);

            // One hypercall from @p actor, absorbing a deferred death
            // of the caller like a hardware VM exit.
            auto step = [&](VmId actor, cpu::HypercallArgs args) {
                std::uint64_t rc = hv::hcError;
                if (hv.hasVm(actor)) {
                    hv::Vm &vm = hv.vm(actor);
                    vm.run(0, [&] { rc = vm.vcpu(0).vmcall(args); });
                }
                hv.reapKilledVms();
                return rc;
            };

            // Step 1: the delegator hands the full window to B.
            CapId child = invalidCapId;
            cpu::HypercallArgs args;
            args.nr = nr(ElisaHc::Delegate);
            args.arg0 = cap.id();
            args.arg1 = bId;
            const std::uint64_t drc = step(aId, args);
            if (drc != hv::hcError && drc != hv::hcBusy)
                child = static_cast<CapId>(drc);

            // Step 2: the delegatee redeems and exercises the gate.
            std::optional<AttachInfo> b_info;
            std::optional<Gate> b_gate;
            if (child != invalidCapId && hv.hasVm(bId)) {
                args = {};
                args.nr = nr(ElisaHc::Redeem);
                args.arg0 = child;
                args.arg1 = b_scratch;
                if (step(bId, args) == 0 && hv.hasVm(bId)) {
                    cpu::GuestView bv(b_vm.vcpu(0));
                    const auto wire =
                        bv.read<WireAttachResult>(b_scratch);
                    b_info = wire.info;
                    b_gate.emplace(b_vm.vcpu(0), svc, wire.info);
                    b_vm.run(0, [&] { b_gate->call(0); });
                    hv.reapKilledVms();
                }
            }

            // Step 3: the delegator revokes the delegation.
            if (child != invalidCapId && hv.hasVm(aId)) {
                args = {};
                args.nr = nr(ElisaHc::CapRevoke);
                args.arg0 = child;
                step(aId, args);
            }
            hv.setFaultPlan(nullptr);

            // The kill rule fired exactly once and the victim is gone.
            EXPECT_EQ(plan.injectedCount(), 1u);
            EXPECT_FALSE(hv.hasVm(victimId));

            // The delegated grant never survives the matrix: torn by
            // the revoke, by its holder's/issuer's death, or by the
            // manager's auto-revoke — or never minted at all.
            if (child != invalidCapId) {
                EXPECT_FALSE(hv.grants().contains(child));
            }

            // Grant table and service bookkeeping agree.
            EXPECT_EQ(svc.grantCount(), hv.grants().size());

            // EPTP reachability matches grant liveness exactly: a
            // live grant's entries resolve, a dead grant's dangle
            // nowhere.
            if (hv.hasVm(aId)) {
                auto &list = a_vm.vcpu(0).eptpList();
                const bool live = hv.grants().contains(cap.id());
                EXPECT_EQ(
                    static_cast<bool>(
                        list.lookup(root_gate.info().gateIndex)),
                    live);
                EXPECT_EQ(static_cast<bool>(
                              list.lookup(root_gate.info().subIndex)),
                          live);
                auto result = a_vm.run(0, [&] { root_gate.call(0); });
                EXPECT_EQ(result.ok, live);
            }
            if (b_info && hv.hasVm(bId)) {
                auto &list = b_vm.vcpu(0).eptpList();
                EXPECT_FALSE(list.lookup(b_info->gateIndex));
                EXPECT_FALSE(list.lookup(b_info->subIndex));
                auto result = b_vm.run(0, [&] { b_gate->call(0); });
                EXPECT_FALSE(result.ok);
                EXPECT_EQ(result.exit.reason,
                          cpu::ExitReason::VmfuncFail);
            }

            // Ledger conservation across the whole episode: the cost
            // kinds partition the grand total, so do the VMs, and the
            // raw rows agree with both.
            SimNs kinds = 0;
            kinds += ledger.kindNs(sim::CostKind::Exit);
            kinds += ledger.kindNs(sim::CostKind::Hypercall);
            kinds += ledger.kindNs(sim::CostKind::GateLeg);
            EXPECT_EQ(kinds, ledger.totalNs());
            const SimNs vms = ledger.vmNs(mgrId) + ledger.vmNs(aId) +
                              ledger.vmNs(bId);
            EXPECT_EQ(vms, ledger.totalNs());
            SimNs row_ns = 0;
            for (const sim::ExitLedger::Row &row : ledger.rows())
                row_ns += row.ns;
            EXPECT_EQ(row_ns, ledger.totalNs());

            // The fault-killed victim left an annotated, conserved
            // post-mortem.
            ASSERT_TRUE(recorder.hasPostMortem(victimId));
            EXPECT_TRUE(recorder.postMortemConserved(victimId));
            EXPECT_NE(recorder.postMortem(victimId).find("fault_kill"),
                      std::string::npos);

            // No leaked frames or grants once the survivors are gone.
            for (const VmId id : {mgrId, aId, bId}) {
                if (hv.hasVm(id))
                    hv.destroyVm(id);
            }
            EXPECT_EQ(hv.allocator().allocated(), baseline);
            EXPECT_EQ(hv.grants().size(), 0u);

            // All three parties dumped conserved post-mortems.
            for (const VmId id : {mgrId, aId, bId}) {
                EXPECT_TRUE(recorder.hasPostMortem(id));
                EXPECT_TRUE(recorder.postMortemConserved(id));
            }
        }
    }
}

// ===================================================================
// Individual fault actions.
// ===================================================================

/** Fixture with one manager, one guest, and a fault plan slot. */
class FaultTest : public ::testing::Test
{
  protected:
    FaultTest()
        : hv(256 * MiB), svc(hv),
          managerVm(hv.createVm("manager", 16 * MiB)),
          guestVm(hv.createVm("guest", 16 * MiB)),
          manager(managerVm, svc), guest(guestVm, svc)
    {
    }

    hv::Hypervisor hv;
    ElisaService svc;
    hv::Vm &managerVm;
    hv::Vm &guestVm;
    ElisaManager manager;
    ElisaGuest guest;
    sim::FaultPlan plan;
};

TEST_F(FaultTest, DropFailsTheHypercall)
{
    sim::FaultRule rule;
    rule.hcNr = static_cast<std::uint64_t>(hv::Hc::Nop);
    rule.action = sim::FaultAction::Drop;
    plan.addRule(rule);
    hv.setFaultPlan(&plan);

    cpu::HypercallArgs args; // Nop
    EXPECT_EQ(guestVm.vcpu(0).vmcall(args), hv::hcError);
    EXPECT_EQ(hv.stats().get("fault_dropped"), 1u);
    // The rule is spent: the retry succeeds.
    EXPECT_EQ(guestVm.vcpu(0).vmcall(args), 0u);
    EXPECT_EQ(plan.injectedCount(), 1u);
}

TEST_F(FaultTest, ErrorFailsTheHypercall)
{
    sim::FaultRule rule;
    rule.hcNr = static_cast<std::uint64_t>(hv::Hc::GetVmId);
    rule.action = sim::FaultAction::Error;
    plan.addRule(rule);
    hv.setFaultPlan(&plan);

    cpu::HypercallArgs args;
    args.nr = static_cast<std::uint64_t>(hv::Hc::GetVmId);
    EXPECT_EQ(guestVm.vcpu(0).vmcall(args), hv::hcError);
    EXPECT_EQ(hv.stats().get("fault_errors"), 1u);
    EXPECT_EQ(guestVm.vcpu(0).vmcall(args),
              std::uint64_t{guestVm.id()});
}

TEST_F(FaultTest, DelayChargesTheCallerAndCompletes)
{
    const SimNs extra = 123456;
    sim::FaultRule rule;
    rule.hcNr = static_cast<std::uint64_t>(hv::Hc::Nop);
    rule.action = sim::FaultAction::Delay;
    rule.param = extra;
    plan.addRule(rule);
    hv.setFaultPlan(&plan);

    cpu::HypercallArgs args; // Nop
    const SimNs t0 = guestVm.vcpu(0).clock().now();
    EXPECT_EQ(guestVm.vcpu(0).vmcall(args), 0u);
    const SimNs slow = guestVm.vcpu(0).clock().now() - t0;

    const SimNs t1 = guestVm.vcpu(0).clock().now();
    EXPECT_EQ(guestVm.vcpu(0).vmcall(args), 0u);
    const SimNs fast = guestVm.vcpu(0).clock().now() - t1;

    EXPECT_EQ(slow - fast, extra);
    EXPECT_EQ(hv.stats().get("fault_delayed"), 1u);
}

TEST_F(FaultTest, DuplicateRunsTheHandlerTwice)
{
    unsigned invocations = 0;
    hv.registerHypercall(0x900, [&](cpu::Vcpu &,
                                    const cpu::HypercallArgs &) {
        return std::uint64_t{++invocations};
    });

    sim::FaultRule rule;
    rule.hcNr = 0x900;
    rule.action = sim::FaultAction::Duplicate;
    plan.addRule(rule);
    hv.setFaultPlan(&plan);

    cpu::HypercallArgs args;
    args.nr = 0x900;
    // The caller observes the SECOND run's result.
    EXPECT_EQ(guestVm.vcpu(0).vmcall(args), 2u);
    EXPECT_EQ(invocations, 2u);
    EXPECT_EQ(hv.stats().get("fault_duplicated"), 1u);
}

TEST_F(FaultTest, DuplicatedDetachIsIdempotent)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, constFns()));
    auto gate = guest.tryAttach(ExportKey("kv"), manager).intoOptional();
    ASSERT_TRUE(gate);

    sim::FaultRule rule;
    rule.hcNr = nr(ElisaHc::Detach);
    rule.action = sim::FaultAction::Duplicate;
    plan.addRule(rule);
    hv.setFaultPlan(&plan);

    // The duplicated Detach replays against an already-detached id;
    // the idempotent path answers success, so the guest sees no error.
    EXPECT_TRUE(guest.detach(*gate));
    EXPECT_EQ(svc.attachmentCount(), 0u);
    EXPECT_EQ(hv.stats().get("elisa_idempotent_detaches"), 1u);
}

TEST_F(FaultTest, KillThirdPartyIsImmediate)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, constFns()));
    const VmId victim = managerVm.id();
    plan.killVmAt(static_cast<std::uint64_t>(hv::Hc::Nop), victim);
    hv.setFaultPlan(&plan);

    // The guest's Nop triggers the manager's death; by the time the
    // handler returns, the manager and its exports are gone.
    cpu::HypercallArgs args; // Nop
    EXPECT_EQ(guestVm.vcpu(0).vmcall(args), 0u);
    EXPECT_FALSE(hv.hasVm(victim));
    EXPECT_EQ(svc.exportCount(), 0u);
    EXPECT_EQ(hv.stats().get("fault_vm_kills"), 1u);
    EXPECT_EQ(hv.stats().get("elisa_auto_revokes"), 1u);
}

TEST_F(FaultTest, KillCallerIsDeferredPastItsOwnFrames)
{
    const VmId victim = guestVm.id();
    plan.killVmAt(static_cast<std::uint64_t>(hv::Hc::Nop), victim);
    hv.setFaultPlan(&plan);

    auto result = guestVm.run(0, [&] {
        cpu::HypercallArgs args; // Nop
        guestVm.vcpu(0).vmcall(args);
    });
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.exit.reason, cpu::ExitReason::VmKilled);

    // The teardown is deferred while guest frames could still be
    // live; an explicit reap (or the next dispatch) completes it.
    EXPECT_TRUE(hv.hasVm(victim));
    EXPECT_EQ(hv.reapKilledVms(), 1u);
    EXPECT_FALSE(hv.hasVm(victim));
}

TEST_F(FaultTest, GrantExhaustFailsDelegationCleanly)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, constFns()));
    AttachResult attached = guest.tryAttach(ExportKey("kv"), manager);
    ASSERT_TRUE(attached.ok());
    Gate gate = attached.take();
    hv::Vm &peer_vm = hv.createVm("peer", 16 * MiB);

    sim::FaultRule rule;
    rule.action = sim::FaultAction::GrantExhaust;
    plan.addRule(rule);
    hv.setFaultPlan(&plan);

    // Injected grant-table exhaustion: the delegation is refused with
    // a defined error, no child grant is minted, the parent grant and
    // its gate survive untouched.
    EXPECT_FALSE(attached.capability().delegate(peer_vm.id()));
    EXPECT_EQ(hv.stats().get("elisa_grant_exhausted"), 1u);
    EXPECT_EQ(svc.grantCount(), 1u);
    EXPECT_EQ(gate.call(0), 42u);

    // Transient: with the rule spent, the same delegation succeeds.
    EXPECT_TRUE(attached.capability().delegate(peer_vm.id()));
    EXPECT_EQ(svc.grantCount(), 2u);
}

TEST_F(FaultTest, GateStaleFaultsLikeARevokedAttachment)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, constFns()));
    auto gate = guest.tryAttach(ExportKey("kv"), manager).intoOptional();
    ASSERT_TRUE(gate);

    sim::FaultRule rule;
    rule.action = sim::FaultAction::GateStale;
    plan.addRule(rule);
    hv.setFaultPlan(&plan);

    const std::uint64_t fails0 =
        guestVm.vcpu(0).stats().get("vmfunc_fail");
    auto result = guestVm.run(0, [&] { gate->call(0); });
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.exit.reason, cpu::ExitReason::VmfuncFail);
    EXPECT_EQ(guestVm.vcpu(0).stats().get("vmfunc_fail"), fails0 + 1);

    // One-shot rule: the attachment is actually intact, so the next
    // call goes through.
    EXPECT_EQ(gate->call(0), 42u);
}

TEST_F(FaultTest, LedgerConservationHoldsUnderChaos)
{
    // The ExitLedger's double-entry property: however chaotically
    // hypercalls are dropped, delayed, duplicated, and gate calls
    // faulted mid-leg, the per-kind and per-VM totals always
    // partition the grand total, and the row sums equal it exactly.
    sim::ExitLedger ledger;
    hv.setLedger(&ledger);

    sim::FaultPlan chaos(7);
    chaos.setDropChance(0.2);
    chaos.setDelayChance(0.15, 500);
    chaos.setDuplicateChance(0.1);
    hv.setFaultPlan(&chaos);

    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, constFns()));

    for (int cycle = 0; cycle < 12; ++cycle) {
        auto result = guest.attachWithRetry(
            ExportKey("kv"), [&] { manager.pollRequests(); });
        if (!result.ok())
            continue; // chaos won this round; accounting still must
        Gate gate = result.take();

        // Every third cycle, one call faults mid-gate (stale EPTP);
        // the run() wrapper absorbs the exit, which the ledger
        // charges as a faulting Exit row.
        if (cycle % 3 == 0) {
            sim::FaultRule rule;
            rule.action = sim::FaultAction::GateStale;
            chaos.addRule(rule);
        }
        for (int call = 0; call < 8; ++call)
            guestVm.run(0, [&] { gate.call(0); });
        guest.detach(gate);
    }
    hv.setFaultPlan(nullptr);

    // The chaos actually exercised all three cost kinds.
    EXPECT_GT(ledger.totalEvents(), 0u);
    EXPECT_GT(ledger.kindNs(sim::CostKind::Hypercall), 0u);
    EXPECT_GT(ledger.kindNs(sim::CostKind::GateLeg), 0u);
    EXPECT_GT(ledger.kindNs(sim::CostKind::Exit), 0u);

    // Conservation: kinds partition the total...
    SimNs kinds = 0;
    kinds += ledger.kindNs(sim::CostKind::Exit);
    kinds += ledger.kindNs(sim::CostKind::Hypercall);
    kinds += ledger.kindNs(sim::CostKind::GateLeg);
    EXPECT_EQ(kinds, ledger.totalNs());

    // ...as do the VMs, and the raw rows match both totals.
    SimNs vms = ledger.vmNs(managerVm.id()) + ledger.vmNs(guestVm.id());
    EXPECT_EQ(vms, ledger.totalNs());

    SimNs row_ns = 0;
    std::uint64_t row_events = 0;
    for (const sim::ExitLedger::Row &row : ledger.rows()) {
        row_ns += row.ns;
        row_events += row.events;
        // Gate legs are observe()d: their duration histogram must
        // agree with the scalar columns (charge()d rows keep none).
        if (row.kind == sim::CostKind::GateLeg) {
            EXPECT_EQ(row.durations.count(), row.events);
            EXPECT_EQ(static_cast<SimNs>(row.durations.sum()),
                      row.ns);
        }
    }
    EXPECT_EQ(row_ns, ledger.totalNs());
    EXPECT_EQ(row_events, ledger.totalEvents());
}

// ---------------------------------------------------------------------
// The page-in rows of the kill matrix: a VM dying mid-page-in, its
// own or somebody else's, converges to a clean machine.
// ---------------------------------------------------------------------

TEST_F(FaultTest, KillDuringOwnPageInReapsCleanly)
{
    sim::Tracer tracer(4096);
    sim::FlightRecorder recorder(64);
    hv.setTracer(&tracer);
    hv.setFlightRecorder(&recorder);
    hv::Pager &pager = hv.enablePaging({0, 64});
    pager.manageVmRam(guestVm, true);
    const VmId victim = guestVm.id();
    plan.killDuringPageIn(victim, 1);
    hv.setFaultPlan(&plan);

    auto r = guestVm.run(0, [&] {
        cpu::GuestView view(guestVm.vcpu(0));
        view.write<std::uint64_t>(0, 1);
    });
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.exit.reason, cpu::ExitReason::VmKilled);
    EXPECT_EQ(hv.stats().get("pager_page_in_kills"), 1u);
    EXPECT_EQ(hv.stats().get("fault_vm_kills"), 1u);

    hv.reapKilledVms();
    EXPECT_FALSE(hv.hasVm(victim));

    // The page-in kill site annotated the victim's post-mortem.
    ASSERT_TRUE(recorder.hasPostMortem(victim));
    EXPECT_TRUE(recorder.postMortemConserved(victim));
    EXPECT_NE(recorder.postMortem(victim).find("fault_kill@page_in"),
              std::string::npos);

    // Every frame and swap slot the victim owned is released, and the
    // survivor still works.
    EXPECT_EQ(pager.managedFrames(), 0u);
    EXPECT_EQ(pager.store().usedSlots(), 0u);
    EXPECT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB,
                                     constFns()));
}

TEST_F(FaultTest, ThirdPartyKillDuringPageInStillResolvesTheFault)
{
    sim::Tracer tracer(4096);
    sim::FlightRecorder recorder(64);
    hv.setTracer(&tracer);
    hv.setFlightRecorder(&recorder);
    hv::Pager &pager = hv.enablePaging({0, 64});
    pager.manageVmRam(guestVm, true);

    // The guest's first page-in takes the manager down — an operator
    // killing an unrelated VM while the swap device is busy. The
    // faulting guest must still get its page.
    sim::FaultRule rule;
    rule.site = static_cast<std::uint64_t>(sim::FaultSite::PageIn);
    rule.vm = guestVm.id();
    rule.action = sim::FaultAction::KillVm;
    rule.param = managerVm.id();
    plan.addRule(rule);
    hv.setFaultPlan(&plan);

    const VmId managerId = managerVm.id();
    auto r = guestVm.run(0, [&] {
        cpu::GuestView view(guestVm.vcpu(0));
        view.write<std::uint64_t>(0, 0x77);
        EXPECT_EQ(view.read<std::uint64_t>(0), 0x77u);
    });
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(hv.hasVm(managerId));
    EXPECT_EQ(pager.residentFrames(), 1u);
    EXPECT_EQ(hv.stats().get("fault_vm_kills"), 1u);

    // The bystander's death is annotated with the page-in kill site.
    ASSERT_TRUE(recorder.hasPostMortem(managerId));
    EXPECT_TRUE(recorder.postMortemConserved(managerId));
    EXPECT_NE(recorder.postMortem(managerId).find(
                  "fault_kill@page_in"),
              std::string::npos);
}

TEST_F(FaultTest, EventLogRecordsEveryInjection)
{
    sim::FaultRule rule;
    rule.hcNr = static_cast<std::uint64_t>(hv::Hc::Nop);
    rule.action = sim::FaultAction::Drop;
    plan.addRule(rule);
    plan.killVmAt(static_cast<std::uint64_t>(hv::Hc::GetVmId),
                  managerVm.id());
    hv.setFaultPlan(&plan);

    cpu::HypercallArgs args; // Nop
    guestVm.vcpu(0).vmcall(args);
    args.nr = static_cast<std::uint64_t>(hv::Hc::GetVmId);
    guestVm.vcpu(0).vmcall(args);

    EXPECT_EQ(plan.injectedCount(), 2u);
    const std::string &log = plan.eventLog();
    EXPECT_NE(log.find("drop"), std::string::npos);
    EXPECT_NE(log.find("kill_vm"), std::string::npos);
    EXPECT_NE(log.find("#1 hc"), std::string::npos);
    EXPECT_NE(log.find("#2 hc"), std::string::npos);
}

TEST_F(FaultTest, ZeroFaultPlanIsInvisible)
{
    hv.setFaultPlan(&plan); // no rules, no chances

    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, constFns()));
    auto gate = guest.tryAttach(ExportKey("kv"), manager).intoOptional();
    ASSERT_TRUE(gate);
    EXPECT_EQ(gate->call(0), 42u);
    EXPECT_TRUE(guest.detach(*gate));

    EXPECT_EQ(plan.injectedCount(), 0u);
    EXPECT_TRUE(plan.eventLog().empty());
    EXPECT_EQ(hv.stats().get("fault_injected"), 0u);
}

// ===================================================================
// Recovery machinery: timeouts, retry/backoff, manager death.
// ===================================================================

TEST_F(FaultTest, PendingRequestTimesOutInsteadOfHanging)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, constFns()));
    auto req = guest.requestAttach(ExportKey("kv"));
    ASSERT_TRUE(req);

    // The manager never polls; past the bound the guest's Query
    // observes TimedOut and the request is reaped.
    guest.vcpu().clock().advance(hv.cost().negotiationTimeoutNs + 1);
    AttachResult late = guest.pollAttach(*req);
    EXPECT_EQ(late.status(), AttachStatus::TimedOut);
    EXPECT_FALSE(late.ok());
    EXPECT_FALSE(late.reason().empty());
    EXPECT_EQ(svc.requestCount(), 0u);
    EXPECT_EQ(hv.stats().get("elisa_timeouts"), 1u);
}

TEST_F(FaultTest, ManagerDeathDeniesWaitersAndRevokesExports)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, constFns()));
    auto held = guest.tryAttach(ExportKey("kv"), manager).intoOptional();
    ASSERT_TRUE(held);
    const EptpIndex gateIdx = held->info().gateIndex;
    const EptpIndex subIdx = held->info().subIndex;

    // A second request is still pending when the manager dies.
    auto req = guest.requestAttach(ExportKey("kv"));
    ASSERT_TRUE(req);
    hv.destroyVm(managerVm.id());

    // The waiter observes Denied, not a hang.
    EXPECT_EQ(guest.pollAttach(*req).status(), AttachStatus::Denied);
    EXPECT_EQ(hv.stats().get("elisa_orphan_denied"), 1u);

    // The export and the live attachment are gone; the guest's
    // EPTP-list entries were removed, so the data path faults.
    EXPECT_EQ(svc.exportCount(), 0u);
    EXPECT_EQ(svc.attachmentCount(), 0u);
    EXPECT_FALSE(guestVm.vcpu(0).eptpList().lookup(gateIdx));
    EXPECT_FALSE(guestVm.vcpu(0).eptpList().lookup(subIdx));
    auto result = guestVm.run(0, [&] { held->call(0); });
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.exit.reason, cpu::ExitReason::VmfuncFail);

    // Detach of the torn-down attachment is idempotent, not an error.
    EXPECT_TRUE(guest.detach(*held));
}

TEST_F(FaultTest, AttachWithRetrySurvivesDroppedHypercalls)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, constFns()));

    // Drop the first AttachRequest and the first Query; the bounded
    // retry loop re-requests and succeeds.
    sim::FaultRule drop;
    drop.hcNr = nr(ElisaHc::AttachRequest);
    drop.action = sim::FaultAction::Drop;
    plan.addRule(drop);
    drop.hcNr = nr(ElisaHc::Query);
    plan.addRule(drop);
    hv.setFaultPlan(&plan);

    AttachResult attached = guest.attachWithRetry(
        ExportKey("kv"), [&] { manager.pollRequests(); });
    ASSERT_TRUE(attached.ok());
    Gate gate = attached.take();
    EXPECT_EQ(gate.call(0), 42u);
    EXPECT_EQ(plan.injectedCount(), 2u);
    EXPECT_GE(guest.vcpu().stats().get("elisa_attach_retries"), 1u);
}

TEST_F(FaultTest, AttachWithRetryGivesUpOnDeadManager)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, constFns()));
    // Captured up front: the kill destroys managerVm.
    const VmId manager_id = managerVm.id();
    plan.killVmAt(nr(ElisaHc::AttachRequest), manager_id);
    hv.setFaultPlan(&plan);

    // The manager dies while the request hypercall is in flight: the
    // export is auto-revoked and the request denied, so the retry
    // loop terminates with a definitive failure instead of spinning.
    AttachResult failed = guest.attachWithRetry(ExportKey("kv"));
    EXPECT_FALSE(failed.ok());
    // The export was auto-revoked with its manager, so the bounded
    // loop ends on a non-Attached status with the reason filled in.
    EXPECT_FALSE(failed.reason().empty());
    EXPECT_FALSE(hv.hasVm(manager_id));
    EXPECT_EQ(svc.requestCount(), 0u);
}

TEST_F(FaultTest, AttachBuildFaultDeniesCleanly)
{
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB, constFns()));

    sim::FaultRule rule;
    rule.action = sim::FaultAction::ShmExhaust; // build-resource fault
    plan.addRule(rule);
    hv.setFaultPlan(&plan);

    AttachResult faulted = guest.tryAttach(ExportKey("kv"), manager);
    EXPECT_EQ(faulted.status(), AttachStatus::Denied);
    EXPECT_FALSE(faulted.reason().empty());
    EXPECT_EQ(svc.attachmentCount(), 0u);
    EXPECT_EQ(hv.stats().get("elisa_attach_build_faults"), 1u);

    // Transient: with the rule spent, the same attach succeeds.
    AttachResult retry = guest.tryAttach(ExportKey("kv"), manager);
    ASSERT_TRUE(retry.ok());
    EXPECT_EQ(retry.gate().call(0), 42u);
}

TEST_F(FaultTest, ChaosSeedIsReproducible)
{
    // Two plans with the same seed must inject the identical fault
    // schedule; a different seed must diverge (with overwhelming
    // probability over 200 draws).
    auto schedule = [&](std::uint64_t seed) {
        sim::FaultPlan p(seed);
        p.setDropChance(0.2);
        p.setDelayChance(0.2, 500);
        std::string out;
        for (unsigned i = 0; i < 200; ++i) {
            const auto d = p.onHypercall(7, 0x100 + (i % 9));
            out += std::to_string(static_cast<int>(d.action)) + ":" +
                   std::to_string(d.param) + ";";
        }
        return out + p.eventLog();
    };

    EXPECT_EQ(schedule(42), schedule(42));
    EXPECT_NE(schedule(42), schedule(43));
}

// ===================================================================
// Cluster-scale kill matrix: a sharded KVS cluster loses a store VM
// at every protocol step of its replicated PUT.
// ===================================================================

TEST(ClusterKillMatrix, EveryStepSurvivesPrimaryOrReplicaDying)
{
    setQuiet(true);

    // All-PUT load makes the step beacon cadence exact: occurrences
    // 1,2,3 are PUT #1's admit / replica-durable / ack sites, 4,5,6
    // are PUT #2's, so six occurrences cover every site twice.
    for (std::uint64_t occurrence = 1; occurrence <= 6; ++occurrence) {
        for (const bool kill_primary : {true, false}) {
            SCOPED_TRACE(std::string("kill ") +
                         (kill_primary ? "primary" : "replica") +
                         " at step occurrence " +
                         std::to_string(occurrence));

            kvs::ClusterConfig cfg;
            cfg.servers = 3;
            cfg.scheme = kvs::ClusterScheme::Elisa;
            cfg.buckets = 512;
            cfg.logSlots = 8192;
            kvs::KvsCluster cluster(cfg);
            constexpr std::uint64_t key_space = 500;
            cluster.prepopulate(key_space);

            const VmId victim = kill_primary
                                    ? cluster.primaryVmId(0)
                                    : cluster.replicaVmId(0);
            sim::FlightRecorder recorder(64);
            cluster.hv(0).setFlightRecorder(&recorder);
            sim::FaultPlan plan;
            plan.killVmAt(cluster.stepNr(0), victim, occurrence);
            cluster.setFaultPlan(0, &plan);
            const kvs::ClusterLoadResult r = cluster.runLoad(
                /*clients_per_server=*/1,
                /*offered_rps_per_client=*/40e3,
                /*requests_per_client=*/120, /*put_ratio=*/1.0,
                key_space, /*zipf_s=*/0.99, /*seed=*/61);
            cluster.setFaultPlan(0, nullptr);

            // The rule fired, the victim is gone, the shard promoted.
            EXPECT_EQ(plan.injectedCount(), 1u);
            EXPECT_FALSE(cluster.hv(0).hasVm(victim));
            EXPECT_EQ(cluster.failovers(0), 1u);

            // The dead server left a conserved, annotated post-mortem.
            ASSERT_TRUE(recorder.hasPostMortem(victim));
            EXPECT_TRUE(recorder.postMortemConserved(victim));
            EXPECT_NE(recorder.postMortem(victim).find("fault_kill"),
                      std::string::npos);
            cluster.hv(0).setFlightRecorder(nullptr);

            // No acknowledged PUT was lost, nothing was torn.
            EXPECT_EQ(r.failed, 0u);
            EXPECT_EQ(r.corrupt, 0u);
            EXPECT_GT(r.ackedPutIds.size(), 0u);
            for (const std::uint64_t id : r.ackedPutIds)
                EXPECT_TRUE(cluster.hostHas(id))
                    << "lost acked PUT " << id;

            // A primary killed at a sync point (admit or ack — not
            // mid-PUT between the two appends) must be reconstructed
            // byte-identically by the replica's log replay.
            if (kill_primary && occurrence % 3 != 2) {
                EXPECT_NE(cluster.lastDyingFingerprint(0), 0u);
                EXPECT_EQ(cluster.lastDyingFingerprint(0),
                          cluster.lastPromotedFingerprint(0));
            }

            // The failed-over shard keeps serving correctly.
            const kvs::ClusterLoadResult after = cluster.runLoad(
                1, 40e3, 60, 0.3, key_space, 0.99, 67);
            EXPECT_EQ(after.failed, 0u);
            EXPECT_EQ(after.corrupt, 0u);
            EXPECT_GT(after.hits, 0u);
        }
    }
}

} // anonymous namespace
