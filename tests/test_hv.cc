/**
 * @file
 * Tests for the hypervisor: VM lifecycle, resource accounting,
 * hypercall registration, EPTP-list management, ivshmem.
 */

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <memory>
#include <set>
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

namespace
{

using namespace elisa;

class HvTest : public ::testing::Test
{
  protected:
    HvTest() : hv(128 * MiB) {}

    hv::Hypervisor hv;
};

TEST_F(HvTest, CreateAndDestroyVmReleasesFrames)
{
    const std::uint64_t before = hv.allocator().allocated();
    hv::Vm &vm = hv.createVm("a", 8 * MiB, 2);
    EXPECT_EQ(vm.vcpuCount(), 2u);
    EXPECT_GT(hv.allocator().allocated(), before);
    const VmId id = vm.id();
    hv.destroyVm(id);
    EXPECT_EQ(hv.allocator().allocated(), before);
    EXPECT_EQ(hv.vmCount(), 0u);
}

TEST(HostResidency, UntouchedRamStaysNonResident)
{
    // The standard bench machine: a 128 MiB manager and twelve 32 MiB
    // guests on 1.5 GiB. Creating them writes EPT tables and EPTP-list
    // pages only, so nearly all of the machine stays unbacked on the
    // host. The 10% bound leaves room for transparent huge pages.
    hv::Hypervisor machine(1536 * MiB);
    machine.createVm("manager", 128 * MiB);
    for (int i = 0; i < 12; ++i)
        machine.createVm("guest" + std::to_string(i), 32 * MiB);

    const mem::HostMemory &memory = machine.memory();
    const std::uintptr_t host_page = sysconf(_SC_PAGESIZE);
    const auto start = reinterpret_cast<std::uintptr_t>(memory.raw(0));
    const std::uintptr_t first = start / host_page * host_page;
    const std::uintptr_t end = start + memory.size();
    const std::uint64_t pages = (end - first + host_page - 1) / host_page;
    std::vector<unsigned char> resident(pages);
    ASSERT_EQ(mincore(reinterpret_cast<void *>(first), end - first,
                      resident.data()),
              0);
    std::uint64_t touched = 0;
    for (unsigned char page : resident)
        touched += page & 1;
    EXPECT_LT(touched, pages / 10)
        << touched << " of " << pages << " host pages resident";
}

TEST_F(HvTest, ChurnedVmLandsOnItsPredecessorsFrames)
{
    // VM churn on the 1.5 GiB bench machine: each 2 MiB guest attaches
    // to a manager's export, makes one gate call, detaches and is
    // destroyed. Freed frames are handed out again first, so every
    // guest's default context lands on its predecessor's root, and no
    // lifecycle leaves a byte that the next hand-out would not scrub.
    hv::Hypervisor machine(1536 * MiB);
    core::ElisaService svc(machine);
    hv::Vm &managerVm = machine.createVm("manager", 128 * MiB);
    core::ElisaManager manager(managerVm, svc);
    core::SharedFnTable fns;
    fns.push_back([](core::SubCallCtx &ctx) {
        return ctx.view.read<std::uint64_t>(ctx.obj + ctx.arg0);
    });
    const core::ExportKey key("churn");
    auto exported = manager.exportObject(key, 64 * KiB, std::move(fns));
    ASSERT_TRUE(exported);
    cpu::GuestView(manager.vcpu())
        .write<std::uint64_t>(exported->objectGpa + 8, 0xc4c4);

    std::set<std::uint64_t> eptps;
    for (int i = 0; i < 2000; ++i) {
        hv::Vm &vm = machine.createVm("churn", 2 * MiB);
        eptps.insert(vm.defaultEpt().eptp());
        {
            core::ElisaGuest guest(vm, svc);
            core::AttachResult attached = guest.tryAttach(key, manager);
            ASSERT_TRUE(attached.ok()) << "lifecycle " << i;
            core::Gate gate = attached.take();
            ASSERT_EQ(gate.call(0, 8), 0xc4c4u) << "lifecycle " << i;
            ASSERT_TRUE(gate.detach()) << "lifecycle " << i;
        }
        machine.destroyVm(vm.id());
    }
    EXPECT_EQ(eptps.size(), 1u);
    EXPECT_TRUE(test::unwrittenLinesWithBytes(machine.memory()).empty());
}

TEST_F(HvTest, VmIdsAreUnique)
{
    hv::Vm &a = hv.createVm("a", 2 * MiB);
    hv::Vm &b = hv.createVm("b", 2 * MiB);
    EXPECT_NE(a.id(), b.id());
    EXPECT_EQ(&hv.vm(a.id()), &a);
    EXPECT_EQ(&hv.vm(b.id()), &b);
}

TEST_F(HvTest, GuestRamIsolatedBetweenVms)
{
    hv::Vm &a = hv.createVm("a", 2 * MiB);
    hv::Vm &b = hv.createVm("b", 2 * MiB);
    cpu::GuestView va(a.vcpu(0)), vb(b.vcpu(0));
    va.write<std::uint64_t>(0x1000, 0xaaaa);
    vb.write<std::uint64_t>(0x1000, 0xbbbb);
    EXPECT_EQ(va.read<std::uint64_t>(0x1000), 0xaaaau);
    EXPECT_EQ(vb.read<std::uint64_t>(0x1000), 0xbbbbu);
    EXPECT_NE(a.ramGpaToHpa(0x1000), b.ramGpaToHpa(0x1000));
}

TEST_F(HvTest, AllocGuestMemBumpsWithinRam)
{
    hv::Vm &vm = hv.createVm("a", 1 * MiB);
    auto r1 = vm.allocGuestMem(4096);
    auto r2 = vm.allocGuestMem(10000);
    ASSERT_TRUE(r1 && r2);
    EXPECT_NE(*r1, *r2);
    EXPECT_TRUE(isPageAligned(*r2));
    // Exhaustion.
    EXPECT_FALSE(vm.allocGuestMem(2 * MiB));
}

TEST_F(HvTest, RegisterHypercallOverrides)
{
    hv::Vm &vm = hv.createVm("a", 2 * MiB);
    hv.registerHypercall(0x42, [](cpu::Vcpu &,
                                  const cpu::HypercallArgs &args) {
        return args.arg0 + args.arg1;
    });
    cpu::HypercallArgs args;
    args.nr = 0x42;
    args.arg0 = 40;
    args.arg1 = 2;
    EXPECT_EQ(vm.vcpu(0).vmcall(args), 42u);
}

TEST_F(HvTest, HandlerCanChargeGuestTime)
{
    hv::Vm &vm = hv.createVm("a", 2 * MiB);
    hv.registerHypercall(0x43, [](cpu::Vcpu &vcpu,
                                  const cpu::HypercallArgs &) {
        vcpu.clock().advance(1000);
        return std::uint64_t{0};
    });
    const SimNs t0 = vm.vcpu(0).clock().now();
    vm.vcpu(0).vmcall(hv::hcArgs(static_cast<hv::Hc>(0x43)));
    EXPECT_EQ(vm.vcpu(0).clock().now() - t0,
              hv.cost().vmcallRttNs() + 1000);
}

TEST_F(HvTest, InstallAndRemoveEptp)
{
    hv::Vm &vm = hv.createVm("a", 2 * MiB);
    cpu::Vcpu &cpu = vm.vcpu(0);

    ept::Ept ctx(hv.memory(), hv.allocator());
    auto idx = hv.installEptp(cpu, ctx.eptp());
    ASSERT_TRUE(idx);
    EXPECT_EQ(*idx, 1u); // slot 0 = default
    EXPECT_EQ(*cpu.eptpList().lookup(*idx), ctx.eptp());

    hv.removeEptp(cpu, *idx);
    EXPECT_FALSE(cpu.eptpList().lookup(*idx));
    // Switching there now faults.
    EXPECT_THROW(cpu.vmfunc(0, *idx), cpu::VmExitEvent);
}

TEST(HvIsolation, RecycledEptpNeverServesRetiredTranslations)
{
    hv::Hypervisor machine(16 * MiB);
    hv::Vm &vm = machine.createVm("a", 2 * MiB);
    cpu::Vcpu &cpu = vm.vcpu(0);
    mem::FrameAllocator &frames = machine.allocator();
    const Gpa g = 0x3000;

    // A context mapping G, used until the TLB caches G under it.
    auto ctx = std::make_unique<ept::Ept>(machine.memory(), frames);
    ASSERT_TRUE(ctx->map(g, vm.ramGpaToHpa(g), ept::Perms::RW));
    const std::uint64_t eptp = ctx->eptp();
    const Hpa root = ept::Ept::rootOfEptp(eptp);
    auto idx = machine.installEptp(cpu, eptp);
    ASSERT_TRUE(idx);
    cpu.vmfunc(0, *idx);
    cpu::GuestView(cpu).read<std::uint64_t>(g);
    ASSERT_TRUE(cpu.tlb().lookup(eptp, g));
    cpu.vmfunc(0, 0);

    // Revoke it (INVEPT) and free its tables.
    machine.removeEptp(cpu, *idx);
    ctx.reset();

    // Freed frames are handed out again first, so the next context
    // lands on the freed root: the same EPTP value, with G left
    // unmapped.
    ept::Ept reused(machine.memory(), frames);
    ASSERT_EQ(ept::Ept::rootOfEptp(reused.eptp()), root);
    ASSERT_EQ(reused.eptp(), eptp);
    auto idx2 = machine.installEptp(cpu, reused.eptp());
    ASSERT_TRUE(idx2);
    cpu.vmfunc(0, *idx2);
    try {
        cpu::GuestView(cpu).read<std::uint64_t>(g);
        FAIL() << "a retired context's translation was served";
    } catch (const cpu::VmExitEvent &e) {
        EXPECT_EQ(e.reason(), cpu::ExitReason::EptViolation);
        EXPECT_TRUE(e.violation().notMapped);
    }
    cpu.vmfunc(0, 0);
    machine.removeEptp(cpu, *idx2);
}

TEST_F(HvTest, IvshmemSharedBetweenVms)
{
    hv::Vm &a = hv.createVm("a", 2 * MiB);
    hv::Vm &b = hv.createVm("b", 2 * MiB);
    hv::IvshmemRegion shm(hv, "shm0", 64 * KiB);

    const Gpa where = 0x40000000;
    ASSERT_TRUE(shm.attach(a, where));
    ASSERT_TRUE(shm.attach(b, where));
    EXPECT_EQ(shm.attachCount(), 2u);

    cpu::GuestView va(a.vcpu(0)), vb(b.vcpu(0));
    va.write<std::uint64_t>(where + 0x10, 0x123456789ull);
    // Direct mapping: b sees a's write immediately.
    EXPECT_EQ(vb.read<std::uint64_t>(where + 0x10), 0x123456789ull);

    shm.detach(b, where);
    EXPECT_THROW(vb.read<std::uint64_t>(where + 0x10),
                 cpu::VmExitEvent);
    // a is unaffected.
    EXPECT_EQ(va.read<std::uint64_t>(where + 0x10), 0x123456789ull);
    shm.detach(a, where);
}

TEST_F(HvTest, VmDestroyHooksRunBeforeTeardown)
{
    hv::Vm &vm = hv.createVm("observed", 2 * MiB);
    const VmId id = vm.id();
    bool saw_alive = false;
    hv.addVmDestroyHook([&](VmId dying) {
        if (dying == id) {
            // The VM must still be resolvable inside the hook.
            saw_alive = (hv.vm(dying).name() == "observed");
        }
    });
    hv.destroyVm(id);
    EXPECT_TRUE(saw_alive);
}

TEST_F(HvTest, IvshmemAttachConflictRejected)
{
    hv::Vm &a = hv.createVm("a", 2 * MiB);
    hv::IvshmemRegion shm(hv, "shm0", 64 * KiB);
    // Overlaps guest RAM at GPA 0.
    EXPECT_FALSE(shm.attach(a, 0));
    EXPECT_EQ(shm.attachCount(), 0u);
}

} // namespace
