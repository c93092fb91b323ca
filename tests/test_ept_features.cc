/**
 * @file
 * Tests for the extended EPT features: 2 MiB large pages, automatic
 * mixed-granularity range mapping, accessed/dirty tracking, aligned
 * frame allocation, and their integration with the access path and
 * ELISA attachments.
 */

#include <gtest/gtest.h>

#include "base/units.hh"
#include "cpu/guest_view.hh"
#include "elisa/gate.hh"
#include "elisa/guest_api.hh"
#include "elisa/manager.hh"
#include "elisa/negotiation.hh"
#include "hv/hypervisor.hh"

namespace
{

using namespace elisa;
using namespace elisa::ept;

class LargePageTest : public ::testing::Test
{
  protected:
    LargePageTest() : memory(64 * MiB), alloc(memory) {}

    /** Allocate a 2 MiB-aligned run of 2 MiB. */
    Hpa
    allocLarge()
    {
        auto base = alloc.allocAligned(largePageSize / pageSize,
                                       largePageSize / pageSize);
        EXPECT_TRUE(base);
        return *base;
    }

    mem::HostMemory memory;
    mem::FrameAllocator alloc;
};

TEST(EptEntryLarge, EncodeDecode)
{
    EptEntry e = EptEntry::makeLarge(4 * largePageSize, Perms::RW);
    EXPECT_TRUE(e.present());
    EXPECT_TRUE(e.isLarge());
    EXPECT_EQ(e.addr(), 4 * largePageSize);
    EXPECT_FALSE(EptEntry::make(0x1000, Perms::RW).isLarge());
}

TEST(EptEntryLarge, AccessedDirtyFlags)
{
    EptEntry e = EptEntry::make(0x1000, Perms::RW);
    EXPECT_FALSE(e.accessed());
    EXPECT_FALSE(e.dirty());
    e.setAccessed(true);
    e.setDirty(true);
    EXPECT_TRUE(e.accessed());
    EXPECT_TRUE(e.dirty());
    EXPECT_EQ(e.addr(), 0x1000u); // flags don't disturb the address
    e.setDirty(false);
    EXPECT_FALSE(e.dirty());
    EXPECT_TRUE(e.accessed());
}

TEST_F(LargePageTest, MapLargeTranslatesWholeRange)
{
    Ept ept(memory, alloc);
    const Hpa target = allocLarge();
    ASSERT_TRUE(ept.mapLarge(0, target, Perms::RW));
    EXPECT_EQ(ept.mappedPages(), 1u);
    EXPECT_EQ(ept.mappedBytes(), largePageSize);

    // Every 4 KiB chunk translates with the right offset.
    const std::uint64_t offsets[] = {0, 0x1234, largePageSize - 8};
    for (std::uint64_t off : offsets) {
        auto t = ept.translate(off);
        ASSERT_TRUE(t) << off;
        EXPECT_EQ(t->hpa, target + off);
    }
    // One byte past the large page is unmapped.
    EXPECT_FALSE(ept.translate(largePageSize));
}

TEST_F(LargePageTest, HardwareWalkHandlesLargeLeaf)
{
    Ept ept(memory, alloc);
    const Hpa target = allocLarge();
    ASSERT_TRUE(ept.mapLarge(largePageSize, target, Perms::RX));
    auto t = hardwareWalk(memory, ept.eptp(), largePageSize + 0x998);
    ASSERT_TRUE(t);
    EXPECT_EQ(t->hpa, target + 0x998);
    EXPECT_EQ(t->perms, Perms::RX);
}

TEST_F(LargePageTest, SmallMapInsideLargeRejected)
{
    Ept ept(memory, alloc);
    const Hpa target = allocLarge();
    auto small = alloc.alloc();
    ASSERT_TRUE(ept.mapLarge(0, target, Perms::RW));
    EXPECT_FALSE(ept.map(0x5000, *small, Perms::RW));
    // And a large map over an existing small mapping is rejected.
    Ept ept2(memory, alloc);
    ASSERT_TRUE(ept2.map(0x5000, *small, Perms::RW));
    EXPECT_FALSE(ept2.mapLarge(0, target, Perms::RW));
}

TEST_F(LargePageTest, UnmapLargeFreesWholeRange)
{
    Ept ept(memory, alloc);
    const Hpa target = allocLarge();
    ASSERT_TRUE(ept.mapLarge(0, target, Perms::RW));
    EXPECT_TRUE(ept.unmap(0x3000)); // any address inside it
    EXPECT_EQ(ept.mappedBytes(), 0u);
    EXPECT_FALSE(ept.translate(0));
    EXPECT_FALSE(ept.translate(largePageSize - 8));
}

TEST_F(LargePageTest, MapRangeAutoMixesGranularities)
{
    Ept ept(memory, alloc);
    // 2 MiB-aligned base, 2 MiB + 12 KiB long: 1 large + 3 small.
    const std::uint64_t len = largePageSize + 3 * pageSize;
    auto run = alloc.allocAligned(len / pageSize,
                                  largePageSize / pageSize);
    ASSERT_TRUE(run);
    ASSERT_TRUE(ept.mapRangeAuto(0, *run, len, Perms::RW));
    EXPECT_EQ(ept.mappedPages(), 1u + 3u);
    EXPECT_EQ(ept.mappedBytes(), len);
    for (std::uint64_t off = 0; off < len; off += pageSize) {
        auto t = ept.translate(off);
        ASSERT_TRUE(t) << off;
        EXPECT_EQ(t->hpa, *run + off);
    }
}

TEST_F(LargePageTest, MapRangeAutoUnalignedFallsBackTo4K)
{
    Ept ept(memory, alloc);
    // Unaligned HPA: everything must be 4 KiB mappings.
    auto run = alloc.alloc(largePageSize / pageSize + 1);
    ASSERT_TRUE(run);
    const Hpa odd = *run + pageSize; // shift off alignment
    ASSERT_TRUE(ept.mapRangeAuto(0, odd, largePageSize, Perms::RW));
    EXPECT_EQ(ept.mappedPages(), largePageSize / pageSize);
}

TEST_F(LargePageTest, ProtectWorksOnLargeLeaf)
{
    Ept ept(memory, alloc);
    const Hpa target = allocLarge();
    ASSERT_TRUE(ept.mapLarge(0, target, Perms::RW));
    EXPECT_TRUE(ept.protect(0x4000, Perms::Read));
    auto t = ept.translate(0x4000);
    ASSERT_TRUE(t);
    EXPECT_EQ(t->perms, Perms::Read);
}

TEST_F(LargePageTest, TablePagesFreedWithLargeLeaves)
{
    const std::uint64_t before = alloc.allocated();
    const Hpa target = allocLarge();
    {
        Ept ept(memory, alloc);
        ept.mapLarge(0, target, Perms::RW);
    }
    alloc.free(target, largePageSize / pageSize);
    EXPECT_EQ(alloc.allocated(), before);
}

// ---- accessed / dirty tracking ------------------------------------

TEST_F(LargePageTest, WalkAdSetsFlags)
{
    Ept ept(memory, alloc);
    auto frame = alloc.alloc();
    ASSERT_TRUE(ept.map(0x1000, *frame, Perms::RW));

    // Read: accessed only.
    hardwareWalkAd(memory, ept.eptp(), 0x1000, false);
    auto dirty = ept.dirtyRanges(0, 64 * pageSize, false);
    EXPECT_TRUE(dirty.empty());

    // Write: dirty too.
    hardwareWalkAd(memory, ept.eptp(), 0x1234, true);
    dirty = ept.dirtyRanges(0, 64 * pageSize, true);
    ASSERT_EQ(dirty.size(), 1u);
    EXPECT_EQ(dirty[0].first, 0x1000u);
    EXPECT_EQ(dirty[0].second, pageSize);

    // Cleared now.
    EXPECT_TRUE(ept.dirtyRanges(0, 64 * pageSize, false).empty());
}

TEST_F(LargePageTest, DirtyRangesOnLargePages)
{
    Ept ept(memory, alloc);
    const Hpa target = allocLarge();
    ASSERT_TRUE(ept.mapLarge(0, target, Perms::RW));
    hardwareWalkAd(memory, ept.eptp(), 0x12345, true);
    auto dirty = ept.dirtyRanges(0, largePageSize, false);
    ASSERT_EQ(dirty.size(), 1u);
    EXPECT_EQ(dirty[0].first, 0u);
    EXPECT_EQ(dirty[0].second, largePageSize);
}

TEST(GuestDirtyTracking, WritesThroughGuestViewAreTracked)
{
    hv::Hypervisor hv(64 * MiB);
    hv::Vm &vm = hv.createVm("guest", 8 * MiB);
    cpu::GuestView view(vm.vcpu(0));

    // Touch three pages: one read-only, two written.
    view.read<std::uint64_t>(0x1000);
    view.write<std::uint64_t>(0x3000, 1);
    view.write<std::uint64_t>(0x5000, 2);
    // Write to an already-read page through the warm TLB entry: the
    // A/D update walk must still mark it dirty.
    view.write<std::uint64_t>(0x1008, 3);
    EXPECT_EQ(vm.vcpu(0).stats().get("ept_ad_update"), 1u);

    auto dirty = vm.defaultEpt().dirtyRanges(0, 8 * MiB, true);
    std::vector<Gpa> pages;
    for (auto [gpa, len] : dirty)
        pages.push_back(gpa);
    EXPECT_EQ(pages.size(), 3u);
    EXPECT_TRUE(std::find(pages.begin(), pages.end(), 0x1000u) !=
                pages.end());
    EXPECT_TRUE(std::find(pages.begin(), pages.end(), 0x3000u) !=
                pages.end());
    EXPECT_TRUE(std::find(pages.begin(), pages.end(), 0x5000u) !=
                pages.end());
}

// ---- aligned frame allocation ------------------------------------

TEST(AlignedAlloc, BaseRespectsAlignment)
{
    mem::HostMemory memory(2048 * pageSize);
    mem::FrameAllocator alloc(memory);
    // Misalign the free space deliberately.
    auto pad = alloc.alloc(3);
    ASSERT_TRUE(pad);
    auto big = alloc.allocAligned(512, 512);
    ASSERT_TRUE(big);
    EXPECT_EQ(*big % (512 * pageSize), 0u);
    auto big2 = alloc.allocAligned(512, 512);
    ASSERT_TRUE(big2);
    EXPECT_NE(*big, *big2);
    // No third aligned run fits (2048 frames, two 512-runs + pad).
    EXPECT_TRUE(alloc.allocAligned(512, 512));
    EXPECT_FALSE(alloc.allocAligned(512, 512));
}

TEST(AlignedAlloc, GuestMemAlignment)
{
    hv::Hypervisor hv(64 * MiB);
    hv::Vm &vm = hv.createVm("guest", 16 * MiB);
    auto a = vm.allocGuestMem(pageSize);
    auto b = vm.allocGuestMem(4 * MiB, largePageSize);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(*b % largePageSize, 0u);
    // Guest RAM itself is 2 MiB-aligned in host-physical space.
    EXPECT_EQ(vm.ramGpaToHpa(0) % largePageSize, 0u);
}

// ---- ELISA integration ------------------------------------------

TEST(ElisaLargePages, BigExportsUseLargeMappings)
{
    hv::Hypervisor hv(256 * MiB);
    core::ElisaService svc(hv);
    hv::Vm &mgr_vm = hv.createVm("manager", 64 * MiB);
    hv::Vm &guest_vm = hv.createVm("guest", 16 * MiB);
    core::ElisaManager manager(mgr_vm, svc);
    core::ElisaGuest guest(guest_vm, svc);

    core::SharedFnTable fns;
    fns.push_back([](core::SubCallCtx &ctx) {
        return ctx.view.read<std::uint64_t>(ctx.obj + ctx.arg0);
    });
    fns.push_back([](core::SubCallCtx &ctx) {
        ctx.view.write<std::uint64_t>(ctx.obj + ctx.arg0, ctx.arg1);
        return std::uint64_t{0};
    });
    auto exported =
        manager.exportObject(core::ExportKey("big"), 8 * MiB, std::move(fns));
    ASSERT_TRUE(exported);

    auto gate = guest.tryAttach(core::ExportKey("big"), manager).intoOptional();
    ASSERT_TRUE(gate);
    core::Attachment *attach = svc.attachment(gate->info().attachment);
    ASSERT_NE(attach, nullptr);

    // 8 MiB object -> 4 large leaves instead of 2048 small ones
    // (plus the gate-code/stack/exchange 4 KiB mappings).
    EXPECT_LT(attach->subEpt().mappedPages(), 64u);
    EXPECT_GE(attach->subEpt().mappedBytes(), 8 * MiB);

    // The data path works across the whole object, including across
    // large-page boundaries.
    gate->call(1, 3 * MiB, 0xabcdef);
    EXPECT_EQ(gate->call(0, 3 * MiB), 0xabcdefu);
    gate->call(1, 8 * MiB - 8, 0x11);
    EXPECT_EQ(gate->call(0, 8 * MiB - 8), 0x11u);

    // Reads outside the object still fault.
    auto result = guest_vm.run(0, [&] { gate->call(0, 8 * MiB); });
    EXPECT_FALSE(result.ok);
}

} // namespace
