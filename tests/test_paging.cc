/**
 * @file
 * Tests for the presence-aware memory hierarchy: demand paging through
 * the EPT-violation path, swap round trips, the clock reclaimer and
 * balloon targets, exact fault accounting, fault injection on the swap
 * device, and object pages faulting mid-gate-call.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/units.hh"
#include "cpu/guest_view.hh"
#include "elisa/gate.hh"
#include "elisa/guest_api.hh"
#include "elisa/manager.hh"
#include "frame_checks.hh"
#include "hv/hypervisor.hh"
#include "hv/ivshmem.hh"
#include "hv/paging.hh"
#include "sim/exit_ledger.hh"
#include "sim/fault.hh"
#include "sim/tracer.hh"

namespace
{

using namespace elisa;
using namespace elisa::core;

/** Code of the Exit/EptViolation ledger row. */
constexpr std::uint32_t
exitCode(cpu::ExitReason reason)
{
    return static_cast<std::uint32_t>(reason);
}

/** Code of a Page ledger row. */
constexpr std::uint32_t
pageCode(sim::PageCost cost)
{
    return static_cast<std::uint32_t>(cost);
}

/** Plain-hypervisor fixture with a ledger installed. */
class PagingTest : public ::testing::Test
{
  protected:
    PagingTest() : hv(256 * MiB) { hv.setLedger(&ledger); }

    const sim::ExitLedger::Row *
    findRow(std::uint32_t vm, sim::CostKind kind, std::uint32_t code)
    {
        for (const auto &row : ledger.rows())
            if (row.vm == vm && row.kind == kind && row.code == code)
                return &row;
        return nullptr;
    }

    hv::Hypervisor hv;
    sim::ExitLedger ledger;
};

TEST_F(PagingTest, DemandZeroFaultInChargesExactly)
{
    hv::Pager &pager = hv.enablePaging({0, 64});
    hv::Vm &vm = hv.createVm("g", 2 * MiB);
    pager.manageVmRam(vm, true);
    EXPECT_EQ(pager.managedFrames(), 2 * MiB / pageSize);
    EXPECT_EQ(pager.residentFrames(), 0u);

    // First touch zero-fills: the guest sees zeroes, not the 0x5a
    // honesty poison, and pays vmexit + handler + zero-fill + vmentry.
    cpu::GuestView view(vm.vcpu(0));
    const SimNs t0 = vm.vcpu(0).clock().now();
    EXPECT_EQ(view.read<std::uint64_t>(0x80), 0u);
    const auto &cost = hv.cost();
    EXPECT_GE(vm.vcpu(0).clock().now() - t0,
              cost.vmexitNs + cost.pageFaultHandleNs + cost.zeroFillNs +
                  cost.vmentryNs);
    EXPECT_EQ(pager.residentFrames(), 1u);
    EXPECT_EQ(hv.stats().get("pager_faults"), 1u);
    EXPECT_EQ(hv.stats().get("pager_zero_fills"), 1u);
    EXPECT_EQ(hv.stats().get("exit_ept-violation"), 1u);

    // Exact ledger attribution: the exit row carries the world switch,
    // the zero-fill row carries the service work, nothing else.
    const auto *exit = findRow(vm.id(), sim::CostKind::Exit,
                               exitCode(cpu::ExitReason::EptViolation));
    ASSERT_NE(exit, nullptr);
    EXPECT_EQ(exit->events, 1u);
    EXPECT_EQ(exit->ns, cost.vmexitNs + cost.vmentryNs);
    const auto *zf = findRow(vm.id(), sim::CostKind::Page,
                             pageCode(sim::PageCost::ZeroFill));
    ASSERT_NE(zf, nullptr);
    EXPECT_EQ(zf->events, 1u);
    EXPECT_EQ(zf->ns, cost.pageFaultHandleNs + cost.zeroFillNs);

    // Writes land after the fault-in and read back.
    view.write<std::uint64_t>(pageSize + 8, 0xabcdu);
    EXPECT_EQ(view.read<std::uint64_t>(pageSize + 8), 0xabcdu);
    EXPECT_EQ(pager.residentFrames(), 2u);
}

TEST_F(PagingTest, SwapRoundTripPreservesContent)
{
    hv::Pager &pager = hv.enablePaging({2, 64});
    hv::Vm &vm = hv.createVm("g", 2 * MiB);
    pager.manageVmRam(vm, true);
    cpu::GuestView view(vm.vcpu(0));

    constexpr unsigned pages = 6;
    for (unsigned i = 0; i < pages; ++i)
        view.write<std::uint64_t>(i * pageSize, 0x1000 + i);
    EXPECT_EQ(pager.residentFrames(), 2u);
    EXPECT_EQ(pager.swappedFrames(), pages - 2u);

    // Every value survives eviction and page-in.
    for (unsigned i = 0; i < pages; ++i)
        EXPECT_EQ(view.read<std::uint64_t>(i * pageSize), 0x1000 + i);
    EXPECT_GE(hv.stats().get("pager_pages_swapped_out"), 4u);
    EXPECT_GE(hv.stats().get("pager_pages_swapped_in"), 4u);

    // Per-event ledger exactness: page-outs cost swapOutNs each,
    // page-ins cost handler + swapInNs each, and the exit row's event
    // count matches the hypervisor's EPT-violation exit stat.
    const auto &cost = hv.cost();
    const auto *out = findRow(vm.id(), sim::CostKind::Page,
                              pageCode(sim::PageCost::PageOut));
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->ns, out->events * cost.swapOutNs);
    const auto *in = findRow(vm.id(), sim::CostKind::Page,
                             pageCode(sim::PageCost::PageIn));
    ASSERT_NE(in, nullptr);
    EXPECT_EQ(in->ns,
              in->events * (cost.pageFaultHandleNs + cost.swapInNs));
    const auto *exit = findRow(vm.id(), sim::CostKind::Exit,
                               exitCode(cpu::ExitReason::EptViolation));
    ASSERT_NE(exit, nullptr);
    EXPECT_EQ(exit->events, hv.stats().get("exit_ept-violation"));
    EXPECT_EQ(exit->ns, exit->events * (cost.vmexitNs + cost.vmentryNs));
}

TEST_F(PagingTest, SuccessorVmOnPoisonedFramesReadsZero)
{
    // The dead VM leaves two resident pages of secret, four swapped-out
    // pages poisoned by page-out and the rest poisoned at registration.
    hv::Pager &pager = hv.enablePaging({2, 64});
    constexpr std::uint64_t ram = 2 * MiB;
    hv::Vm &tenant = hv.createVm("tenant", ram);
    pager.manageVmRam(tenant, true);
    const Hpa frames = tenant.ramGpaToHpa(0);
    const std::vector<std::uint8_t> secret(pageSize, 0xc5);
    cpu::GuestView view(tenant.vcpu(0));
    for (unsigned i = 0; i < 6; ++i)
        view.writeBytes(i * pageSize, secret.data(), pageSize);
    ASSERT_EQ(pager.swappedFrames(), 4u);
    hv.destroyVm(tenant.id());

    hv::Vm &successor = hv.createVm("successor", ram);
    ASSERT_EQ(successor.ramGpaToHpa(0), frames);
    std::vector<std::uint8_t> seen(ram, 0xff);
    cpu::GuestView(successor.vcpu(0)).readBytes(0, seen.data(), ram);
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 0),
              static_cast<std::ptrdiff_t>(ram));
    // Every write path, the pager's poisoning and page-ins included,
    // marked the lines it wrote.
    EXPECT_TRUE(test::unwrittenLinesWithBytes(hv.memory()).empty());
}

TEST_F(PagingTest, L0MicroCacheStaleAcrossReclaimRefaults)
{
    // One resident frame: every new touch evicts the previous page.
    hv::Pager &pager = hv.enablePaging({1, 64});
    hv::Vm &vm = hv.createVm("g", 2 * MiB);
    pager.manageVmRam(vm, true);
    cpu::GuestView view(vm.vcpu(0));

    view.write<std::uint64_t>(0, 0x1111u);
    EXPECT_EQ(view.read<std::uint64_t>(0), 0x1111u); // L0 now hot
    view.write<std::uint64_t>(pageSize, 0x2222u);    // evicts page 0
    EXPECT_EQ(pager.frameState(vm.ramGpaToHpa(0)),
              hv::Pager::FrameState::Swapped);

    // The GuestView's L0 line for page 0 must NOT satisfy this read
    // from stale state: the INVEPT on eviction bumped the TLB epoch,
    // so the read faults and pages the data back in.
    const std::uint64_t faults = hv.stats().get("pager_faults");
    EXPECT_EQ(view.read<std::uint64_t>(0), 0x1111u);
    EXPECT_EQ(hv.stats().get("pager_faults"), faults + 1);
    EXPECT_EQ(pager.frameState(vm.ramGpaToHpa(pageSize)),
              hv::Pager::FrameState::Swapped);
}

TEST_F(PagingTest, SuccessorTracerInTheSameStorageGetsValidNames)
{
    hv::Pager &pager = hv.enablePaging({0, 64});
    hv::Vm &vm = hv.createVm("g", 2 * MiB);
    pager.manageVmRam(vm, true);
    cpu::GuestView view(vm.vcpu(0));

    sim::Tracer tracer;
    hv.setTracer(&tracer);
    view.read<std::uint64_t>(0); // zero-fill under the first tracer

    // A new tracer at the old one's address: every page event it
    // records must name an entry of its own table.
    tracer = sim::Tracer();
    hv.setTracer(&tracer);
    view.read<std::uint64_t>(pageSize);
    hv.setTracer(nullptr);

    const std::string json = tracer.chromeJson();
    EXPECT_NE(json.find("\"name\":\"zero_fill\",\"cat\":\"page\""),
              std::string::npos);
}

TEST_F(PagingTest, ResidentLimitHoldsUnderThrash)
{
    hv::Pager &pager = hv.enablePaging({3, 256});
    hv::Vm &vm = hv.createVm("g", 2 * MiB);
    pager.manageVmRam(vm, true);
    cpu::GuestView view(vm.vcpu(0));

    for (unsigned round = 0; round < 3; ++round) {
        for (unsigned i = 0; i < 16; ++i) {
            const Gpa gpa = ((i * 7) % 16) * pageSize;
            view.write<std::uint64_t>(gpa, round * 100 + i);
            ASSERT_LE(pager.residentFrames(), 3u);
        }
    }
    EXPECT_LE(pager.residentFrames(), 3u);
    EXPECT_EQ(pager.residentFrames() + pager.swappedFrames(), 16u);
}

TEST_F(PagingTest, BalloonTargetDirectsReclaim)
{
    hv::Pager &pager = hv.enablePaging({4, 64});
    hv::Vm &vm1 = hv.createVm("v1", 2 * MiB);
    hv::Vm &vm2 = hv.createVm("v2", 2 * MiB);
    pager.manageVmRam(vm1, true);
    pager.manageVmRam(vm2, true);
    pager.setBalloonTarget(vm1.id(), 1);

    cpu::GuestView view1(vm1.vcpu(0));
    cpu::GuestView view2(vm2.vcpu(0));
    view1.write<std::uint64_t>(0, 1);
    view1.write<std::uint64_t>(pageSize, 2);
    for (unsigned i = 0; i < 3; ++i)
        view2.write<std::uint64_t>(i * pageSize, 10 + i);

    // vm1 is over its balloon target, so reclaim took its frames
    // first (no second chance) and never touched vm2's.
    const auto *u1 = hv.allocator().ownerUsage(vm1.id());
    const auto *u2 = hv.allocator().ownerUsage(vm2.id());
    ASSERT_NE(u1, nullptr);
    ASSERT_NE(u2, nullptr);
    EXPECT_GE(u1->swappedFrames, 1u);
    EXPECT_EQ(u2->swappedFrames, 0u);
    EXPECT_LE(u1->residentFrames, 1u);
    EXPECT_EQ(u1->balloonTargetFrames, 1u);

    // Both VMs still read their own data back.
    EXPECT_EQ(view1.read<std::uint64_t>(0), 1u);
    EXPECT_EQ(view2.read<std::uint64_t>(2 * pageSize), 12u);
}

TEST_F(PagingTest, UnmanagedViolationStillExitsToTheGuest)
{
    hv::Pager &pager = hv.enablePaging({0, 64});
    hv::Vm &vm = hv.createVm("g", 2 * MiB);
    pager.manageVmRam(vm, false);

    // Beyond RAM: not the pager's fault — a guest-visible exit.
    auto r = vm.run(0, [&] {
        cpu::GuestView view(vm.vcpu(0));
        view.read<std::uint64_t>(4 * MiB);
    });
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.exit.reason, cpu::ExitReason::EptViolation);
    EXPECT_EQ(hv.stats().get("pager_faults"), 0u);
}

TEST_F(PagingTest, HostTouchPagesInWithoutAnExit)
{
    hv::Pager &pager = hv.enablePaging({2, 64});
    hv::Vm &vm = hv.createVm("g", 2 * MiB);
    pager.manageVmRam(vm, true);

    // The VMCALL servicing scheme: the host pages frames in on the
    // guest's behalf, charging service work but no vmexit/vmentry.
    EXPECT_TRUE(pager.hostTouch(vm.vcpu(0), vm.ramGpaToHpa(0),
                                3 * pageSize));
    EXPECT_EQ(pager.residentFrames(), 2u);
    EXPECT_EQ(hv.stats().get("pager_host_touches"), 1u);
    EXPECT_EQ(hv.stats().get("exit_ept-violation"), 0u);
    EXPECT_EQ(findRow(vm.id(), sim::CostKind::Exit,
                      exitCode(cpu::ExitReason::EptViolation)),
              nullptr);
    const auto *zf = findRow(vm.id(), sim::CostKind::Page,
                             pageCode(sim::PageCost::ZeroFill));
    ASSERT_NE(zf, nullptr);
    EXPECT_EQ(zf->events, 3u);
}

TEST_F(PagingTest, PageInThatCannotMakeRoomChangesNothing)
{
    // Three pages resident, one swapped out into the only swap slot.
    // Under a budget of one frame its page-in needs three victims but
    // frees only its own slot: it must fail before touching anything.
    hv::Pager &pager = hv.enablePaging({3, 1});
    hv::Vm &vm = hv.createVm("g", 2 * MiB);
    pager.manageVmRam(vm, true);
    cpu::GuestView view(vm.vcpu(0));
    for (unsigned i = 0; i < 4; ++i)
        view.write<std::uint64_t>(i * pageSize, 0x1000 + i);
    ASSERT_EQ(pager.residentFrames(), 3u);
    ASSERT_EQ(pager.swappedFrames(), 1u);
    ASSERT_EQ(pager.store().usedSlots(), 1u);
    Gpa swapped = 0;
    while (pager.frameState(vm.ramGpaToHpa(swapped)) !=
           hv::Pager::FrameState::Swapped)
        swapped += pageSize;

    auto state = [&] {
        std::vector<std::uint64_t> s;
        for (unsigned i = 0; i < 4; ++i) {
            s.push_back(static_cast<std::uint64_t>(
                *pager.frameState(vm.ramGpaToHpa(i * pageSize))));
            s.push_back(vm.defaultEpt().leafEntry(i * pageSize)->raw());
        }
        s.push_back(pager.residentFrames());
        s.push_back(pager.swappedFrames());
        s.push_back(pager.store().usedSlots());
        for (const char *stat : {"pager_pages_swapped_in",
                                 "pager_pages_swapped_out",
                                 "pager_zero_fills"})
            s.push_back(hv.stats().get(stat));
        return s;
    };
    const auto before = state();
    pager.setResidentLimit(1);

    // A guest fault surfaces the EPT-violation exit...
    auto r = vm.run(0, [&] { view.read<std::uint64_t>(swapped); });
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.exit.reason, cpu::ExitReason::EptViolation);
    EXPECT_EQ(state(), before);
    // ...and a host touch reports failure.
    EXPECT_FALSE(pager.hostTouch(vm.vcpu(0), vm.ramGpaToHpa(swapped), 8));
    EXPECT_EQ(state(), before);

    // With room, every page comes back intact.
    pager.setResidentLimit(4);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(view.read<std::uint64_t>(i * pageSize), 0x1000 + i);
    EXPECT_EQ(pager.residentFrames(), 4u);
    EXPECT_EQ(pager.store().usedSlots(), 0u);
}

TEST_F(PagingTest, IvshmemMirrorReattachedAtTheSameGpaStillPages)
{
    // An ivshmem region managed through its first attachment; the
    // second attachment is detached and re-attached at the same GPA,
    // and its leaves must still follow every eviction and page-in.
    hv::Pager &pager = hv.enablePaging({2, 64});
    hv::Vm &a = hv.createVm("a", 2 * MiB);
    hv::Vm &b = hv.createVm("b", 2 * MiB);
    hv::IvshmemRegion region(hv, "shm", 4 * pageSize);
    constexpr Gpa gpa = 1 * GiB;
    ASSERT_TRUE(region.attach(a, gpa));
    pager.manageRange(a.id(), a.defaultEpt(), gpa, region.base(),
                      region.size(), true);
    ASSERT_TRUE(region.attach(b, gpa));
    region.detach(b, gpa);
    ASSERT_TRUE(region.attach(b, gpa));

    cpu::GuestView va(a.vcpu(0));
    cpu::GuestView vb(b.vcpu(0));
    for (unsigned i = 0; i < 4; ++i)
        va.write<std::uint64_t>(gpa + i * pageSize, 0x300 + i);
    const std::uint64_t outs = hv.stats().get("pager_pages_swapped_out");
    const std::uint64_t ins = hv.stats().get("pager_pages_swapped_in");
    for (unsigned round = 0; round < 2; ++round) {
        for (unsigned i = 0; i < 4; ++i) {
            EXPECT_EQ(vb.read<std::uint64_t>(gpa + i * pageSize), 0x300 + i);
            for (unsigned j = 0; j < 4; ++j) {
                const Gpa page = gpa + j * pageSize;
                EXPECT_EQ(b.defaultEpt().entryState(page),
                          a.defaultEpt().entryState(page))
                    << "page " << j;
            }
        }
    }
    EXPECT_GT(hv.stats().get("pager_pages_swapped_out"), outs);
    EXPECT_GT(hv.stats().get("pager_pages_swapped_in"), ins);
    EXPECT_EQ(pager.residentFrames(), 2u);
    region.detach(b, gpa);
    region.detach(a, gpa);
}

TEST_F(PagingTest, PageInErrorSurfacesExitAndRetryRecovers)
{
    sim::FaultPlan plan(42);
    hv.setFaultPlan(&plan);
    hv::Pager &pager = hv.enablePaging({0, 64});
    hv::Vm &vm = hv.createVm("g", 2 * MiB);
    pager.manageVmRam(vm, true);
    plan.failPageInAt(vm.id(), 1);

    cpu::GuestView view(vm.vcpu(0));
    auto r = vm.run(0, [&] { view.write<std::uint64_t>(0, 7); });
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.exit.reason, cpu::ExitReason::EptViolation);
    EXPECT_EQ(hv.stats().get("pager_page_in_errors"), 1u);

    // The page is not lost: the next fault pages it in normally.
    auto r2 = vm.run(0, [&] { view.write<std::uint64_t>(0, 7); });
    EXPECT_TRUE(r2.ok);
    EXPECT_EQ(view.read<std::uint64_t>(0), 7u);
    EXPECT_EQ(pager.residentFrames(), 1u);
}

TEST_F(PagingTest, PageInDelayIsChargedToTheFault)
{
    sim::FaultPlan plan(42);
    hv.setFaultPlan(&plan);
    plan.setPageInDelayChance(1.0, 5000);
    hv::Pager &pager = hv.enablePaging({0, 64});
    hv::Vm &vm = hv.createVm("g", 2 * MiB);
    pager.manageVmRam(vm, true);

    cpu::GuestView view(vm.vcpu(0));
    view.write<std::uint64_t>(0, 1);
    EXPECT_GE(hv.stats().get("pager_page_in_delays"), 1u);

    // The injected device delay rides on the Page row, on top of the
    // handler + zero-fill base cost.
    const auto &cost = hv.cost();
    const auto *zf = findRow(vm.id(), sim::CostKind::Page,
                             pageCode(sim::PageCost::ZeroFill));
    ASSERT_NE(zf, nullptr);
    EXPECT_GT(zf->ns, cost.pageFaultHandleNs + cost.zeroFillNs);
}

TEST_F(PagingTest, KillDuringPageInDoomsTheVm)
{
    sim::FaultPlan plan(42);
    hv.setFaultPlan(&plan);
    hv::Pager &pager = hv.enablePaging({0, 64});
    hv::Vm &vm = hv.createVm("g", 2 * MiB);
    const VmId id = vm.id();
    pager.manageVmRam(vm, true);
    plan.killDuringPageIn(id, 1);

    auto r = vm.run(0, [&] {
        cpu::GuestView view(vm.vcpu(0));
        view.write<std::uint64_t>(0, 1);
    });
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.exit.reason, cpu::ExitReason::VmKilled);
    EXPECT_EQ(hv.stats().get("pager_page_in_kills"), 1u);

    hv.reapKilledVms();
    EXPECT_FALSE(hv.hasVm(id));
    // Teardown released every frame the VM owned.
    EXPECT_EQ(pager.managedFrames(), 0u);
    EXPECT_EQ(pager.residentFrames(), 0u);
    EXPECT_EQ(pager.swappedFrames(), 0u);
}

TEST_F(PagingTest, LedgerConservesUnderPagingChaos)
{
    sim::FaultPlan plan(7);
    hv.setFaultPlan(&plan);
    plan.setPageInDelayChance(0.5, 3000);
    plan.setPageInErrorChance(0.1);
    hv::Pager &pager = hv.enablePaging({4, 256});
    hv::Vm &vm = hv.createVm("g", 2 * MiB);
    pager.manageVmRam(vm, true);

    cpu::GuestView view(vm.vcpu(0));
    for (unsigned round = 0; round < 4; ++round) {
        for (unsigned i = 0; i < 12; ++i) {
            const Gpa gpa = ((i * 5) % 12) * pageSize;
            // Retry injected errors: the page is never lost.
            for (unsigned attempt = 0; attempt < 8; ++attempt) {
                auto r = vm.run(0, [&] {
                    view.write<std::uint64_t>(gpa, round + i);
                });
                if (r.ok)
                    break;
            }
            ASSERT_EQ(view.read<std::uint64_t>(gpa), round + i);
        }
    }

    // Conservation: the cost kinds partition the total, the VMs
    // partition the total, and the EptViolation exit row saw exactly
    // as many events as the hypervisor's exit counter (resolved and
    // unresolved alike).
    SimNs byKind = 0;
    for (unsigned k = 0; k < sim::costKindCount; ++k)
        byKind += ledger.kindNs(static_cast<sim::CostKind>(k));
    EXPECT_EQ(byKind, ledger.totalNs());
    EXPECT_EQ(ledger.vmNs(vm.id()), ledger.totalNs());

    const auto *exit = findRow(vm.id(), sim::CostKind::Exit,
                               exitCode(cpu::ExitReason::EptViolation));
    ASSERT_NE(exit, nullptr);
    EXPECT_EQ(exit->events, hv.stats().get("exit_ept-violation"));
    EXPECT_GT(hv.stats().get("pager_page_in_delays"), 0u);
}

// ---------------------------------------------------------------------
// ELISA integration: object pages faulting mid-gate-call.
// ---------------------------------------------------------------------

/** ELISA fixture with paging enabled before any attachment exists. */
class PagedElisaTest : public ::testing::Test
{
  protected:
    PagedElisaTest()
        : hv(256 * MiB), pager(hv.enablePaging({0, 256})), svc(hv),
          managerVm(hv.createVm("manager", 16 * MiB)),
          guestVm(hv.createVm("guest", 16 * MiB)),
          manager(managerVm, svc), guest(guestVm, svc)
    {
        hv.setLedger(&ledger);
    }

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
        fns.push_back([](SubCallCtx &) { // 2: constant
            return std::uint64_t{42};
        });
        return fns;
    }

    const sim::ExitLedger::Row *
    findRow(std::uint32_t vm, sim::CostKind kind, std::uint32_t code)
    {
        for (const auto &row : ledger.rows())
            if (row.vm == vm && row.kind == kind && row.code == code)
                return &row;
        return nullptr;
    }

    hv::Hypervisor hv;
    hv::Pager &pager;
    sim::ExitLedger ledger;
    ElisaService svc;
    hv::Vm &managerVm;
    hv::Vm &guestVm;
    ElisaManager manager;
    ElisaGuest guest;
};

TEST_F(PagedElisaTest, SharedObjectFaultMidGateCallBillsTheGuest)
{
    auto exp = manager.exportObject(ExportKey("kv"), 64 * KiB, basicFns());
    ASSERT_TRUE(exp);
    pager.manageObject(managerVm, managerVm.ramGpaToHpa(exp->objectGpa),
                       64 * KiB, true);
    pager.setResidentLimit(4);

    // The manager populates the object; its own faults bill to it.
    cpu::GuestView mview(managerVm.vcpu(0));
    for (unsigned i = 0; i < 16; ++i)
        mview.write<std::uint64_t>(exp->objectGpa + i * pageSize,
                                   0xbeef0000 + i);
    EXPECT_EQ(pager.residentFrames(), 4u);
    EXPECT_EQ(pager.swappedFrames(), 12u);

    auto gate = guest.tryAttach(ExportKey("kv"), manager).intoOptional();
    ASSERT_TRUE(gate);

    // Gate calls across the whole object: most pages are swapped out,
    // so the sub context faults mid-call. Every fault is billed to the
    // *faulting guest*; the object owner's ledger does not move.
    const SimNs managerNs = ledger.vmNs(managerVm.id());
    const std::uint64_t faults = hv.stats().get("pager_faults");
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(gate->call(0, i * pageSize), 0xbeef0000 + i);
    EXPECT_GT(hv.stats().get("pager_faults"), faults);
    EXPECT_EQ(ledger.vmNs(managerVm.id()), managerNs);

    const auto *in = findRow(guestVm.id(), sim::CostKind::Page,
                             pageCode(sim::PageCost::PageIn));
    ASSERT_NE(in, nullptr);
    EXPECT_GT(in->events, 0u);
    const auto *exit = findRow(guestVm.id(), sim::CostKind::Exit,
                               exitCode(cpu::ExitReason::EptViolation));
    ASSERT_NE(exit, nullptr);
    const auto &cost = hv.cost();
    EXPECT_EQ(exit->ns, exit->events * (cost.vmexitNs + cost.vmentryNs));

    // Lock-step promotion: the page the guest just faulted in is
    // present for the manager's default context too — no new fault.
    const std::uint64_t f2 = hv.stats().get("pager_faults");
    EXPECT_EQ(mview.read<std::uint64_t>(exp->objectGpa + 15 * pageSize),
              0xbeef000fu);
    EXPECT_EQ(hv.stats().get("pager_faults"), f2);
}

TEST_F(PagedElisaTest, DelegatedWindowFaultBillsTheDelegatee)
{
    auto exp = manager.exportObject(ExportKey("kv"), 16 * KiB, basicFns());
    ASSERT_TRUE(exp);
    pager.manageObject(managerVm, managerVm.ramGpaToHpa(exp->objectGpa),
                       16 * KiB, true);

    AttachResult attached = guest.tryAttach(ExportKey("kv"), manager);
    ASSERT_TRUE(attached.ok());
    Gate gate = attached.take();

    // The delegator writes through its gate (faulting the page in),
    // then delegates the third page to a peer.
    gate.call(1, 8 * KiB + 16, 0xfeed);
    hv::Vm &peer_vm = hv.createVm("peer", 16 * MiB);
    ElisaGuest peer(peer_vm, svc);
    Capability::DelegateSpec spec;
    spec.offset = 8 * KiB;
    spec.bytes = 4 * KiB;
    spec.perms = ept::Perms::Read;
    auto child = attached.capability().delegate(peer_vm.id(), spec);
    ASSERT_TRUE(child);
    AttachResult redeemed = peer.redeem(*child);
    ASSERT_TRUE(redeemed.ok()) << redeemed.reason();
    Gate peer_gate = redeemed.take();

    // Force the delegated page out, then read it through the narrowed
    // window: the fault resolves inside the peer's sub context.
    pager.setResidentLimit(1);
    gate.call(0, 0); // page 0 in, evicting page 2
    ASSERT_EQ(pager.frameState(
                  managerVm.ramGpaToHpa(exp->objectGpa + 8 * KiB)),
              hv::Pager::FrameState::Swapped);

    const std::uint64_t faults = hv.stats().get("pager_faults");
    EXPECT_EQ(peer_gate.call(0, 16), 0xfeedu);
    EXPECT_EQ(hv.stats().get("pager_faults"), faults + 1);
    const auto *in = findRow(peer_vm.id(), sim::CostKind::Page,
                             pageCode(sim::PageCost::PageIn));
    ASSERT_NE(in, nullptr);
    EXPECT_GE(in->events, 1u);
}

TEST_F(PagedElisaTest, UnmanagedGateCallStillCosts196ns)
{
    // Paging enabled but the object unmanaged: the fault sink sits on
    // the violation path only, so the exit-less round trip is intact.
    ASSERT_TRUE(manager.exportObject(ExportKey("kv"), 4 * KiB,
                                     basicFns()));
    auto gate = guest.tryAttach(ExportKey("kv"), manager).intoOptional();
    ASSERT_TRUE(gate);

    gate->call(2); // warm the gate path
    const SimNs t0 = guest.vcpu().clock().now();
    EXPECT_EQ(gate->call(2), 42u);
    EXPECT_EQ(guest.vcpu().clock().now() - t0, 196u);
    EXPECT_EQ(hv.stats().get("pager_faults"), 0u);
}

} // namespace
