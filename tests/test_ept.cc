/**
 * @file
 * Unit + property tests for the EPT substrate: entries, hierarchies,
 * the hardware walker, EPTP lists, and the tagged TLB.
 */

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/units.hh"
#include "ept/ept.hh"
#include "ept/ept_entry.hh"
#include "ept/eptp_list.hh"
#include "ept/tlb.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace
{

using namespace elisa;
using namespace elisa::ept;

class EptTest : public ::testing::Test
{
  protected:
    EptTest() : memory(32 * MiB), alloc(memory) {}

    mem::HostMemory memory;
    mem::FrameAllocator alloc;
};

// The pager's two steps on one GPA: resolve its 4 KiB leaf slot, then
// act on the slot. A GPA without such a slot fails, like a leaf in the
// wrong state.
bool
markSwapped(Ept &ept, Gpa gpa, std::uint64_t slot_id)
{
    auto leaf = ept.pageLeaf(gpa);
    return leaf && ept.markSwapped(*leaf, slot_id);
}

bool
markBallooned(Ept &ept, Gpa gpa)
{
    auto leaf = ept.pageLeaf(gpa);
    return leaf && ept.markBallooned(*leaf);
}

bool
markPresent(Ept &ept, Gpa gpa, Hpa hpa)
{
    auto leaf = ept.pageLeaf(gpa);
    return leaf && ept.markPresent(*leaf, hpa);
}

bool
accessedAndClear(Ept &ept, Gpa gpa)
{
    auto leaf = ept.pageLeaf(gpa);
    return leaf && ept.accessedAndClear(*leaf);
}

TEST(EptEntry, EncodeDecodeRoundTrip)
{
    const Hpa addr = 0x123456000ull;
    EptEntry e = EptEntry::make(addr, Perms::RW);
    EXPECT_TRUE(e.present());
    EXPECT_EQ(e.addr(), addr);
    EXPECT_EQ(e.perms(), Perms::RW);
    e.setPerms(Perms::Read);
    EXPECT_EQ(e.perms(), Perms::Read);
    EXPECT_EQ(e.addr(), addr);
}

TEST(EptEntry, ZeroIsNotPresent)
{
    EXPECT_FALSE(EptEntry(0).present());
}

TEST(EptEntry, PermsChecks)
{
    EXPECT_TRUE(permits(Perms::RWX, Perms::Read));
    EXPECT_TRUE(permits(Perms::RWX, Perms::RW));
    EXPECT_FALSE(permits(Perms::Read, Perms::Write));
    EXPECT_FALSE(permits(Perms::RW, Perms::Exec));
    EXPECT_EQ(permsToString(Perms::RX), "r-x");
    EXPECT_EQ(permsToString(Perms::None), "---");
}

TEST(EptEntry, IndexExtraction)
{
    // GPA with distinct 9-bit groups: PML4=1, PDPT=2, PD=3, PT=4.
    const Gpa gpa = (1ull << 39) | (2ull << 30) | (3ull << 21) |
                    (4ull << 12) | 0x123;
    EXPECT_EQ(eptIndex(gpa, 3), 1u);
    EXPECT_EQ(eptIndex(gpa, 2), 2u);
    EXPECT_EQ(eptIndex(gpa, 1), 3u);
    EXPECT_EQ(eptIndex(gpa, 0), 4u);
}

TEST_F(EptTest, MapTranslateUnmap)
{
    Ept ept(memory, alloc);
    auto frame = alloc.alloc();
    ASSERT_TRUE(frame);

    EXPECT_FALSE(ept.translate(0x5000));
    EXPECT_TRUE(ept.map(0x5000, *frame, Perms::RW));
    auto t = ept.translate(0x5000);
    ASSERT_TRUE(t);
    EXPECT_EQ(t->hpa, *frame);
    EXPECT_EQ(t->perms, Perms::RW);

    // Offsets within the page are preserved.
    auto t2 = ept.translate(0x5abc);
    ASSERT_TRUE(t2);
    EXPECT_EQ(t2->hpa, *frame + 0xabc);

    EXPECT_TRUE(ept.unmap(0x5000));
    EXPECT_FALSE(ept.translate(0x5000));
    EXPECT_FALSE(ept.unmap(0x5000)); // second unmap fails
}

TEST_F(EptTest, DoubleMapRejected)
{
    Ept ept(memory, alloc);
    auto f1 = alloc.alloc();
    auto f2 = alloc.alloc();
    EXPECT_TRUE(ept.map(0x1000, *f1, Perms::Read));
    EXPECT_FALSE(ept.map(0x1000, *f2, Perms::Read));
    auto t = ept.translate(0x1000);
    ASSERT_TRUE(t);
    EXPECT_EQ(t->hpa, *f1); // original mapping intact
}

TEST_F(EptTest, MapRangeAllOrNothing)
{
    Ept ept(memory, alloc);
    auto run = alloc.alloc(4);
    ASSERT_TRUE(run);
    auto blocker = alloc.alloc();
    EXPECT_TRUE(ept.map(0x2000, *blocker, Perms::Read));

    // Range [0, 4 pages) collides with the page at 0x2000.
    EXPECT_FALSE(ept.mapRange(0x0000, *run, 4 * pageSize, Perms::RW));
    // Nothing from the failed range may have been mapped.
    EXPECT_FALSE(ept.translate(0x0000));
    EXPECT_FALSE(ept.translate(0x1000));
    EXPECT_FALSE(ept.translate(0x3000));

    EXPECT_TRUE(ept.mapRange(0x10000, *run, 4 * pageSize, Perms::RW));
    EXPECT_EQ(ept.mappedPages(), 5u);
}

TEST_F(EptTest, MapRangeAutoFillsAnEmptiedPageTable)
{
    Ept ept(memory, alloc);
    auto first = alloc.allocAligned(512, 512);
    auto second = alloc.allocAligned(512, 512);
    ASSERT_TRUE(first && second);
    ASSERT_TRUE(ept.mapRange(0, *first, largePageSize, Perms::RW));
    EXPECT_EQ(ept.unmapRange(0, largePageSize), 512u);
    const std::uint64_t tables = ept.tablePages();

    // The emptied page table still hangs at the directory slot, so the
    // chunk takes 4 KiB leaves inside it instead of a 2 MiB leaf.
    ASSERT_TRUE(ept.mapRangeAuto(0, *second, largePageSize, Perms::RW));
    EXPECT_EQ(ept.mappedPages(), 512u);
    EXPECT_EQ(ept.mappedBytes(), largePageSize);
    EXPECT_EQ(ept.tablePages(), tables);
    for (std::uint64_t off = 0; off < largePageSize; off += pageSize) {
        auto t = ept.translate(off);
        ASSERT_TRUE(t) << off;
        EXPECT_EQ(t->hpa, *second + off);
    }
}

TEST_F(EptTest, ProtectChangesLeafPerms)
{
    Ept ept(memory, alloc);
    auto frame = alloc.alloc();
    EXPECT_TRUE(ept.map(0x7000, *frame, Perms::RW));
    EXPECT_TRUE(ept.protect(0x7000, Perms::Read));
    auto t = ept.translate(0x7000);
    ASSERT_TRUE(t);
    EXPECT_EQ(t->perms, Perms::Read);
    EXPECT_FALSE(ept.protect(0x9000, Perms::Read)); // unmapped
}

TEST_F(EptTest, TranslateForChecksPermissions)
{
    Ept ept(memory, alloc);
    auto frame = alloc.alloc();
    EXPECT_TRUE(ept.map(0x3000, *frame, Perms::Read));

    EptViolation v;
    EXPECT_TRUE(ept.translateFor(0x3000, Access::Read, &v));
    EXPECT_FALSE(ept.translateFor(0x3000, Access::Write, &v));
    EXPECT_EQ(v.gpa, 0x3000u);
    EXPECT_EQ(v.access, Access::Write);
    EXPECT_FALSE(v.notMapped);
    EXPECT_EQ(v.present, Perms::Read);

    EXPECT_FALSE(ept.translateFor(0x4000, Access::Read, &v));
    EXPECT_TRUE(v.notMapped);
}

TEST_F(EptTest, GenerationBumpsOnRevocation)
{
    Ept ept(memory, alloc);
    auto frame = alloc.alloc();
    const std::uint64_t g0 = ept.generation();
    ept.map(0x1000, *frame, Perms::RW);
    EXPECT_EQ(ept.generation(), g0); // map is not a revocation
    ept.protect(0x1000, Perms::Read);
    EXPECT_GT(ept.generation(), g0);
    const std::uint64_t g1 = ept.generation();
    ept.unmap(0x1000);
    EXPECT_GT(ept.generation(), g1);
}

TEST_F(EptTest, TablePagesFreedOnDestruction)
{
    const std::uint64_t before = alloc.allocated();
    {
        Ept ept(memory, alloc);
        auto frame = alloc.alloc();
        // Map widely separated GPAs to force distinct table subtrees.
        ept.map(0x0000, *frame, Perms::Read);
        ept.map(1ull << 30, *frame, Perms::Read);
        ept.map(1ull << 39, *frame, Perms::Read);
        EXPECT_GE(ept.tablePages(), 7u);
        alloc.free(*frame);
    }
    EXPECT_EQ(alloc.allocated(), before);
}

TEST_F(EptTest, HardwareWalkMatchesTranslate)
{
    Ept ept(memory, alloc);
    auto frame = alloc.alloc();
    ept.map(0xabc000, *frame, Perms::RX);

    auto hw = hardwareWalk(memory, ept.eptp(), 0xabc123);
    ASSERT_TRUE(hw);
    EXPECT_EQ(hw->hpa, *frame + 0x123);
    EXPECT_EQ(hw->perms, Perms::RX);
    EXPECT_FALSE(hardwareWalk(memory, ept.eptp(), 0xdef000));
}

TEST_F(EptTest, EptpEncodesRootAndConfig)
{
    Ept ept(memory, alloc);
    const std::uint64_t eptp = ept.eptp();
    EXPECT_EQ(Ept::rootOfEptp(eptp) & pageMask, 0u);
    // SDM config bits: WB (6) + walk length 3 (bits 5:3).
    EXPECT_EQ(eptp & 0x7, 0x6u);
    EXPECT_EQ((eptp >> 3) & 0x7, 0x3u);
}

/** Property: a random mapping set walks back exactly. */
class EptProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(EptProperty, RandomMappingsRoundTrip)
{
    mem::HostMemory memory(64 * MiB);
    mem::FrameAllocator alloc(memory);
    Ept ept(memory, alloc);
    sim::Rng rng(GetParam());

    std::map<Gpa, Translation> expected;
    const Perms choices[] = {Perms::Read, Perms::RW, Perms::RX,
                             Perms::RWX, Perms::Exec};
    for (int i = 0; i < 400; ++i) {
        const Gpa gpa = pageAlignDown(rng.below(maxGpa));
        auto frame = alloc.alloc();
        ASSERT_TRUE(frame);
        const Perms perms = choices[rng.below(5)];
        if (expected.contains(gpa)) {
            EXPECT_FALSE(ept.map(gpa, *frame, perms));
            alloc.free(*frame);
        } else {
            ASSERT_TRUE(ept.map(gpa, *frame, perms));
            expected[gpa] = Translation{*frame, perms};
        }
    }
    EXPECT_EQ(ept.mappedPages(), expected.size());
    for (const auto &[gpa, want] : expected) {
        auto got = ept.translate(gpa + 0x10);
        ASSERT_TRUE(got) << std::hex << gpa;
        EXPECT_EQ(got->hpa, want.hpa + 0x10);
        EXPECT_EQ(got->perms, want.perms);
        auto hw = hardwareWalk(memory, ept.eptp(), gpa + 0x10);
        ASSERT_TRUE(hw);
        EXPECT_EQ(hw->hpa, got->hpa);
    }
    // Unmap half, verify the rest survives.
    std::size_t k = 0;
    for (auto it = expected.begin(); it != expected.end();) {
        if (k++ % 2 == 0) {
            EXPECT_TRUE(ept.unmap(it->first));
            it = expected.erase(it);
        } else {
            ++it;
        }
    }
    for (const auto &[gpa, want] : expected)
        EXPECT_TRUE(ept.translate(gpa));
    EXPECT_EQ(ept.mappedPages(), expected.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EptProperty,
                         ::testing::Values(1u, 7u, 99u, 12345u));

// ---- Range operations against the per-page algorithms ---------------

/**
 * The per-page range algorithms that Ept's range operations replace,
 * built on its public per-page operations: a root walk per page to
 * validate, then one per page to map or unmap. mapRangeAuto() gives a
 * chunk whose directory slot holds an emptied page table 4 KiB leaves.
 */
namespace per_page
{

bool
occupied(const Ept &ept, Gpa gpa)
{
    const auto leaf = ept.leafEntry(gpa);
    return leaf && leaf->raw() != 0;
}

bool
rangeFree(const Ept &ept, Gpa gpa, std::uint64_t len)
{
    for (std::uint64_t off = 0; off < len; off += pageSize) {
        if (occupied(ept, gpa + off))
            return false;
    }
    return true;
}

bool
mapRange(Ept &ept, Gpa gpa, Hpa hpa, std::uint64_t len, Perms perms)
{
    if (!rangeFree(ept, gpa, len))
        return false;
    for (std::uint64_t off = 0; off < len; off += pageSize)
        EXPECT_TRUE(ept.map(gpa + off, hpa + off, perms));
    return true;
}

bool
mapRangeAuto(Ept &ept, Gpa gpa, Hpa hpa, std::uint64_t len, Perms perms)
{
    if (!rangeFree(ept, gpa, len))
        return false;
    for (std::uint64_t off = 0; off < len;) {
        const Gpa g = gpa + off;
        const Hpa h = hpa + off;
        if (((g | h) & largePageMask) == 0 && len - off >= largePageSize) {
            if (!ept.mapLarge(g, h, perms)) {
                for (std::uint64_t p = 0; p < largePageSize; p += pageSize)
                    EXPECT_TRUE(ept.map(g + p, h + p, perms));
            }
            off += largePageSize;
        } else {
            EXPECT_TRUE(ept.map(g, h, perms));
            off += pageSize;
        }
    }
    return true;
}

std::uint64_t
unmapRange(Ept &ept, Gpa gpa, std::uint64_t len)
{
    std::uint64_t removed = 0;
    for (std::uint64_t off = 0; off < len; off += pageSize)
        removed += ept.unmap(gpa + off) ? 1 : 0;
    return removed;
}

} // namespace per_page

/** One machine of the differential pair: memory holds only tables. */
struct RangeMachine
{
    RangeMachine() : memory(8 * MiB), alloc(memory) {}

    mem::HostMemory memory;
    mem::FrameAllocator alloc;
    std::unique_ptr<Ept> ept;
};

class EptRangeDifferential : public ::testing::TestWithParam<unsigned>
{
};

// Two identical machines, one driven through the range operations and
// one through the per-page algorithms, compared after every operation:
// returns, counters, the allocator's frames and every table byte (so
// the order and placement of table allocations are pinned), and every
// leaf of the touched span. GPAs fall in windows that straddle a 1 GiB
// and a 512 GiB boundary; HPAs share the GPA's 2 MiB offset half the
// time so 2 MiB leaves form.
TEST_P(EptRangeDifferential, MatchesPerPageAlgorithms)
{
    sim::Rng rng(GetParam());
    RangeMachine fast, ref;
    const std::uint64_t baseline = fast.alloc.allocated();
    const Gpa windows[] = {0, 1 * GiB - 4 * MiB, 512 * GiB - 4 * MiB};
    constexpr std::uint64_t windowPages = 8 * MiB / pageSize;
    constexpr std::uint64_t maxPages = 1100;
    const std::uint64_t memPages = fast.memory.frameCount();
    const Perms perms[] = {Perms::Read, Perms::RW, Perms::RX, Perms::RWX};

    auto build = [&] {
        fast.ept = std::make_unique<Ept>(fast.memory, fast.alloc);
        ref.ept = std::make_unique<Ept>(ref.memory, ref.alloc);
    };
    auto teardown = [&] {
        fast.ept.reset();
        ref.ept.reset();
        ASSERT_EQ(fast.alloc.allocated(), baseline);
        ASSERT_EQ(ref.alloc.allocated(), baseline);
    };
    auto compare = [&](Gpa gpa, std::uint64_t len) {
        ASSERT_EQ(fast.ept->mappedPages(), ref.ept->mappedPages());
        ASSERT_EQ(fast.ept->mappedBytes(), ref.ept->mappedBytes());
        ASSERT_EQ(fast.ept->tablePages(), ref.ept->tablePages());
        ASSERT_EQ(fast.ept->generation(), ref.ept->generation());
        ASSERT_EQ(fast.alloc.allocated(), ref.alloc.allocated());
        const mem::HostMemory &fm = fast.memory, &rm = ref.memory;
        for (std::uint64_t f = 0; f < memPages; ++f) {
            const Hpa hpa = f * pageSize;
            ASSERT_EQ(fast.alloc.isAllocated(hpa), ref.alloc.isAllocated(hpa))
                << "frame " << f;
            if (fast.alloc.isAllocated(hpa)) {
                ASSERT_EQ(std::memcmp(fm.raw(hpa, pageSize),
                                      rm.raw(hpa, pageSize), pageSize),
                          0)
                    << "table frame " << f;
            }
        }
        for (Gpa g = pageAlignDown(gpa); g < gpa + len; g += pageSize) {
            const auto a = fast.ept->leafEntry(g);
            const auto b = ref.ept->leafEntry(g);
            ASSERT_EQ(a.has_value(), b.has_value()) << std::hex << g;
            if (a) {
                ASSERT_EQ(a->raw(), b->raw()) << std::hex << g;
            }
        }
    };

    build();
    constexpr int steps = 12000;
    for (int step = 0; step < steps; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        if (step % 250 == 249) {
            teardown();
            build();
        }
        // A range inside one window.
        const Gpa window = windows[rng.below(3)];
        std::uint64_t page = rng.below(windowPages);
        std::uint64_t pages = 0;
        switch (rng.below(4)) {
          case 0:
            pages = 1 + rng.below(8);
            break;
          case 1:
            pages = 1 + rng.below(maxPages);
            break;
          default:
            // Whole chunks, often chunk-aligned.
            if (rng.chance(0.6))
                page &= ~std::uint64_t{511};
            pages = 512 * (1 + rng.below(2)) +
                    (rng.chance(0.5) ? 0 : rng.below(8));
            break;
        }
        pages = std::min(pages, windowPages - page);
        const Gpa gpa = window + page * pageSize;
        const std::uint64_t len = pages * pageSize;
        const std::uint64_t hpaPages = memPages - pages;
        Hpa hpa = rng.below(hpaPages + 1) * pageSize;
        if (rng.chance(0.5)) {
            // Same 2 MiB offset as the GPA.
            const std::uint64_t skew = gpa & largePageMask;
            const std::uint64_t slots =
                (memPages * pageSize - skew - len) / largePageSize;
            if (skew + len <= memPages * pageSize)
                hpa = skew + rng.below(slots + 1) * largePageSize;
        }
        const Perms p = perms[rng.below(4)];

        const unsigned op = static_cast<unsigned>(rng.below(100));
        if (op < 22) {
            ASSERT_EQ(fast.ept->mapRange(gpa, hpa, len, p),
                      per_page::mapRange(*ref.ept, gpa, hpa, len, p));
        } else if (op < 44) {
            ASSERT_EQ(fast.ept->mapRangeAuto(gpa, hpa, len, p),
                      per_page::mapRangeAuto(*ref.ept, gpa, hpa, len, p));
        } else if (op < 62) {
            // Sometimes from inside a page, for a partial last page.
            Gpa at = gpa;
            std::uint64_t bytes = len;
            if (rng.chance(0.2)) {
                at += rng.below(pageSize);
                bytes -= rng.below(pageSize);
            }
            ASSERT_EQ(fast.ept->unmapRange(at, bytes),
                      per_page::unmapRange(*ref.ept, at, bytes));
        } else if (op < 72) {
            ASSERT_EQ(fast.ept->map(gpa, hpa, p), ref.ept->map(gpa, hpa, p));
        } else if (op < 78) {
            const Gpa g = gpa & ~largePageMask;
            const Hpa h = rng.below(memPages * pageSize / largePageSize) *
                          largePageSize;
            ASSERT_EQ(fast.ept->mapLarge(g, h, p), ref.ept->mapLarge(g, h, p));
        } else if (op < 84) {
            const std::uint64_t slot = rng.below(1u << 20);
            ASSERT_EQ(markSwapped(*fast.ept, gpa, slot),
                      markSwapped(*ref.ept, gpa, slot));
        } else if (op < 88) {
            ASSERT_EQ(markBallooned(*fast.ept, gpa),
                      markBallooned(*ref.ept, gpa));
        } else if (pages > 1) {
            // A collision on the range's last page: the range call must
            // fail without writing an entry or allocating a table.
            const Gpa last = gpa + len - pageSize;
            const Hpa h = rng.below(memPages) * pageSize;
            ASSERT_EQ(fast.ept->map(last, h, p), ref.ept->map(last, h, p));
            const std::uint64_t tables = fast.ept->tablePages();
            const std::uint64_t frames = fast.alloc.allocated();
            const std::uint64_t leaves = fast.ept->mappedPages();
            if (rng.chance(0.5)) {
                ASSERT_FALSE(fast.ept->mapRange(gpa, hpa, len, p));
                ASSERT_FALSE(per_page::mapRange(*ref.ept, gpa, hpa, len, p));
            } else {
                ASSERT_FALSE(fast.ept->mapRangeAuto(gpa, hpa, len, p));
                ASSERT_FALSE(
                    per_page::mapRangeAuto(*ref.ept, gpa, hpa, len, p));
            }
            ASSERT_EQ(fast.ept->tablePages(), tables);
            ASSERT_EQ(fast.alloc.allocated(), frames);
            ASSERT_EQ(fast.ept->mappedPages(), leaves);
        }
        compare(gpa, len);
    }
    teardown();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EptRangeDifferential,
                         ::testing::Values(1u, 2u));

// ---- EPTP list ---------------------------------------------------------

class EptpListTest : public EptTest
{
};

TEST_F(EptpListTest, SetLookupClear)
{
    EptpList list(memory, alloc);
    EXPECT_FALSE(list.lookup(0));
    list.set(0, 0x1000 | 0x1e);
    auto v = list.lookup(0);
    ASSERT_TRUE(v);
    EXPECT_EQ(*v, 0x1000u | 0x1e);
    list.clear(0);
    EXPECT_FALSE(list.lookup(0));
}

TEST_F(EptpListTest, OutOfRangeLookupIsInvalid)
{
    EptpList list(memory, alloc);
    EXPECT_FALSE(list.lookup(512));
    EXPECT_FALSE(list.lookup(60000));
}

TEST_F(EptpListTest, FindFreeAndFind)
{
    EptpList list(memory, alloc);
    EXPECT_EQ(*list.findFree(), 0u);
    list.set(0, 0xa000 | 0x1e);
    list.set(1, 0xb000 | 0x1e);
    EXPECT_EQ(*list.findFree(), 2u);
    EXPECT_EQ(*list.find(0xb000 | 0x1e), 1u);
    EXPECT_FALSE(list.find(0xc000 | 0x1e));
    EXPECT_EQ(list.validCount(), 2u);
}

TEST_F(EptpListTest, FullListHasNoFreeSlot)
{
    EptpList list(memory, alloc);
    for (unsigned i = 0; i < eptpListSize; ++i)
        list.set(static_cast<EptpIndex>(i), 0x1000 | 0x1e);
    EXPECT_FALSE(list.findFree());
    EXPECT_EQ(list.validCount(), eptpListSize);
}

TEST_F(EptpListTest, ValidCountMatchesAScanOfThePage)
{
    // set() and clear() keep the count: random sequences, re-setting
    // valid entries and clearing empty ones included, must leave it
    // equal to a count of the page's non-zero slots.
    for (unsigned seed : {1u, 2u, 3u}) {
        sim::Rng rng(seed);
        EptpList list(memory, alloc);
        for (int step = 0; step < 20000; ++step) {
            const auto index =
                static_cast<EptpIndex>(rng.below(rng.chance(0.5) ? 8 : 512));
            if (rng.chance(0.55))
                list.set(index, (1 + rng.below(1000)) << 12 | 0x1e);
            else
                list.clear(index);
            unsigned scanned = 0;
            for (unsigned i = 0; i < eptpListSize; ++i)
                scanned += memory.read64(list.pageAddr() + i * 8ull) != 0;
            ASSERT_EQ(list.validCount(), scanned)
                << "seed " << seed << " step " << step;
        }
    }
}

// ---- TLB ------------------------------------------------------------

TEST(Tlb, HitAfterFillMissBefore)
{
    Tlb tlb(64);
    const std::uint64_t eptp = 0x10000 | 0x1e;
    EXPECT_FALSE(tlb.lookup(eptp, 0x5123));
    EXPECT_EQ(tlb.misses(), 1u);
    tlb.fill(eptp, 0x5123, Translation{0x99123, Perms::RW});
    auto hit = tlb.lookup(eptp, 0x5456);
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->hpa, 0x99456u);
    EXPECT_EQ(hit->perms, Perms::RW);
    EXPECT_EQ(tlb.hits(), 1u);
}

TEST(Tlb, EptpTagsSeparateContexts)
{
    Tlb tlb(64);
    const std::uint64_t a = 0x10000 | 0x1e;
    const std::uint64_t b = 0x20000 | 0x1e;
    tlb.fill(a, 0x1000, Translation{0x111000, Perms::RW});
    // Same GPA under a different EPTP must not hit.
    EXPECT_FALSE(tlb.lookup(b, 0x1000));
    EXPECT_TRUE(tlb.lookup(a, 0x1000));
}

TEST(Tlb, FlushEptpIsSelective)
{
    Tlb tlb(64);
    const std::uint64_t a = 0x10000 | 0x1e;
    const std::uint64_t b = 0x20000 | 0x1e;
    tlb.fill(a, 0x1000, Translation{0x111000, Perms::RW});
    tlb.fill(b, 0x2000, Translation{0x222000, Perms::RW});
    tlb.flushEptp(a);
    EXPECT_FALSE(tlb.lookup(a, 0x1000));
    EXPECT_TRUE(tlb.lookup(b, 0x2000));
    tlb.flushAll();
    EXPECT_FALSE(tlb.lookup(b, 0x2000));
    EXPECT_EQ(tlb.validCount(), 0u);
}

TEST(Tlb, StaleEntryReplacedByFill)
{
    Tlb tlb(64);
    const std::uint64_t eptp = 0x10000 | 0x1e;
    tlb.fill(eptp, 0x1000, Translation{0xaaa000, Perms::RW});
    tlb.fill(eptp, 0x1000, Translation{0xbbb000, Perms::Read});
    auto hit = tlb.lookup(eptp, 0x1000);
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->hpa, 0xbbb000u);
    EXPECT_EQ(hit->perms, Perms::Read);
}

TEST(Tlb, AttachedStatsMirrorHitMissFlush)
{
    Tlb tlb(64);
    sim::StatSet stats;
    tlb.attachStats(stats);
    const std::uint64_t eptp = 0x10000 | 0x1e;

    EXPECT_FALSE(tlb.lookup(eptp, 0x1000)); // miss
    tlb.fill(eptp, 0x1000, Translation{0x111000, Perms::RW});
    EXPECT_TRUE(tlb.lookup(eptp, 0x1000)); // hit
    tlb.flushEptp(eptp);
    tlb.flushAll();

    EXPECT_EQ(stats.get("tlb_miss"), tlb.misses());
    EXPECT_EQ(stats.get("tlb_hit"), tlb.hits());
    EXPECT_EQ(stats.get("tlb_flush"), tlb.flushes());
    EXPECT_EQ(stats.get("tlb_miss"), 1u);
    EXPECT_EQ(stats.get("tlb_hit"), 1u);
    EXPECT_EQ(stats.get("tlb_flush"), 2u);
}

TEST(Tlb, EpochBumpsOnFillFlushAndExplicitBump)
{
    Tlb tlb(64);
    const std::uint64_t eptp = 0x10000 | 0x1e;
    const std::uint64_t e0 = tlb.epoch();

    // Lookups never move the epoch.
    (void)tlb.lookup(eptp, 0x1000);
    EXPECT_EQ(tlb.epoch(), e0);

    // A fill may evict: epoch must advance.
    tlb.fill(eptp, 0x1000, Translation{0x111000, Perms::RW});
    const std::uint64_t e1 = tlb.epoch();
    EXPECT_GT(e1, e0);

    (void)tlb.lookup(eptp, 0x1000);
    EXPECT_EQ(tlb.epoch(), e1);

    tlb.flushEptp(eptp);
    const std::uint64_t e2 = tlb.epoch();
    EXPECT_GT(e2, e1);

    tlb.flushAll();
    const std::uint64_t e3 = tlb.epoch();
    EXPECT_GT(e3, e2);

    tlb.bumpEpoch();
    EXPECT_GT(tlb.epoch(), e3);
}

/**
 * Reference model of the Tlb with scan invalidation: every entry
 * carries a valid bit and the flushes clear it entry by entry. Same
 * slot function, counts and epoch rules as Tlb.
 */
class ScanTlb
{
  public:
    explicit ScanTlb(std::size_t entry_count)
        : entries(entry_count), mask(entry_count - 1)
    {
    }

    std::optional<Translation>
    lookup(std::uint64_t eptp, Gpa gpa)
    {
        const Entry &e = slot(eptp, gpa);
        if (e.valid && e.eptp == eptp && e.gpaPage == pageAlignDown(gpa)) {
            ++hits;
            return Translation{e.hpaPage | (gpa & pageMask), e.perms};
        }
        ++misses;
        return std::nullopt;
    }

    void
    fill(std::uint64_t eptp, Gpa gpa, const Translation &xlat,
         bool dirty_known)
    {
        slot(eptp, gpa) = Entry{true, dirty_known, eptp,
                                pageAlignDown(gpa),
                                pageAlignDown(xlat.hpa), xlat.perms};
        filledSinceFlush.insert(eptp);
        ++epoch;
    }

    bool
    dirtyKnown(std::uint64_t eptp, Gpa gpa)
    {
        const Entry &e = slot(eptp, gpa);
        return e.valid && e.eptp == eptp &&
               e.gpaPage == pageAlignDown(gpa) && e.dirtyKnown;
    }

    void
    setDirtyKnown(std::uint64_t eptp, Gpa gpa)
    {
        Entry &e = slot(eptp, gpa);
        if (e.valid && e.eptp == eptp && e.gpaPage == pageAlignDown(gpa))
            e.dirtyKnown = true;
    }

    void
    flushAll()
    {
        for (Entry &e : entries)
            e.valid = false;
        filledSinceFlush.clear();
        ++flushes;
        ++epoch;
    }

    void
    flushEptp(std::uint64_t eptp)
    {
        for (Entry &e : entries) {
            if (e.valid && e.eptp == eptp)
                e.valid = false;
        }
        filledSinceFlush.erase(eptp);
        ++flushes;
        ++epoch;
    }

    std::size_t
    validCount() const
    {
        std::size_t n = 0;
        for (const Entry &e : entries)
            n += e.valid ? 1 : 0;
        return n;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t flushes = 0;
    std::uint64_t epoch = 0;
    /** EPTPs filled since their last flush: Tlb's live contexts. */
    std::set<std::uint64_t> filledSinceFlush;

  private:
    struct Entry
    {
        bool valid = false;
        bool dirtyKnown = false;
        std::uint64_t eptp = 0;
        Gpa gpaPage = 0;
        Hpa hpaPage = 0;
        Perms perms = Perms::None;
    };

    Entry &
    slot(std::uint64_t eptp, Gpa gpa)
    {
        const std::uint64_t key =
            (gpa >> pageShift) ^ (eptp >> pageShift) * 0x9e37ull;
        return entries[key & mask];
    }

    std::vector<Entry> entries;
    std::uint64_t mask;
};

class TlbDifferential : public ::testing::TestWithParam<std::size_t>
{
};

// Random operations against the scan model, compared after every
// step. Six of eight EPTP values are in use at a time; an EPTP leaving
// use is flushed (retired) and may come back later, as a recycled root
// frame does, so refills after flushes and context-id reuse are both
// exercised.
TEST_P(TlbDifferential, MatchesScanModel)
{
    const std::size_t entry_count = GetParam();
    constexpr int steps = 60000;
    constexpr std::size_t eptpsInUse = 6;
    for (std::uint64_t seed : {1ull, 2ull}) {
        sim::Rng rng(seed * 7919 + entry_count);
        Tlb tlb(entry_count);
        ScanTlb ref(entry_count);

        std::vector<std::uint64_t> idle;
        for (std::uint64_t k = 1; k <= 8; ++k)
            idle.push_back((k * 37) << pageShift | 0x1e);
        std::vector<std::uint64_t> inUse(idle.end() - eptpsInUse,
                                         idle.end());
        idle.resize(idle.size() - eptpsInUse);

        // Twice as many pages as slots, so fills evict.
        const std::uint64_t pages = 2 * entry_count;
        auto pickGpa = [&] {
            return rng.below(pages) * pageSize + rng.below(pageSize);
        };
        const Perms perms[] = {Perms::Read, Perms::RW, Perms::RX,
                               Perms::RWX};

        for (int step = 0; step < steps; ++step) {
            const std::uint64_t eptp = inUse[rng.below(inUse.size())];
            const Gpa gpa = pickGpa();
            const unsigned op = static_cast<unsigned>(rng.below(100));
            SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                         std::to_string(step) + " op " +
                         std::to_string(op));
            if (op < 35) {
                auto got = tlb.lookup(eptp, gpa);
                auto want = ref.lookup(eptp, gpa);
                ASSERT_EQ(got.has_value(), want.has_value());
                if (want) {
                    ASSERT_EQ(got->hpa, want->hpa);
                    ASSERT_EQ(got->perms, want->perms);
                }
            } else if (op < 65) {
                const Translation xlat{rng.below(1u << 20) * pageSize,
                                       perms[rng.below(4)]};
                const bool dirty = rng.below(2) == 1;
                tlb.fill(eptp, gpa, xlat, dirty);
                ref.fill(eptp, gpa, xlat, dirty);
            } else if (op < 75) {
                ASSERT_EQ(tlb.dirtyKnown(eptp, gpa),
                          ref.dirtyKnown(eptp, gpa));
            } else if (op < 82) {
                tlb.setDirtyKnown(eptp, gpa);
                ref.setDirtyKnown(eptp, gpa);
            } else if (op < 89) {
                tlb.flushEptp(eptp);
                ref.flushEptp(eptp);
            } else if (op < 94) {
                // Retire an EPTP: flush it and swap in an idle value
                // (possibly one retired earlier).
                const std::size_t out = rng.below(inUse.size());
                const std::size_t in = rng.below(idle.size());
                tlb.flushEptp(inUse[out]);
                ref.flushEptp(inUse[out]);
                std::swap(inUse[out], idle[in]);
            } else if (op < 96) {
                tlb.flushAll();
                ref.flushAll();
            } else {
                tlb.bumpEpoch();
                ++ref.epoch;
            }
            ASSERT_EQ(tlb.hits(), ref.hits);
            ASSERT_EQ(tlb.misses(), ref.misses);
            ASSERT_EQ(tlb.flushes(), ref.flushes);
            ASSERT_EQ(tlb.epoch(), ref.epoch);
            ASSERT_EQ(tlb.validCount(), ref.validCount());
            ASSERT_EQ(tlb.liveContexts(), ref.filledSinceFlush.size());
        }
        // Flushes ran often enough to exercise id reuse.
        EXPECT_GT(tlb.flushes(), static_cast<std::uint64_t>(steps) / 10);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TlbDifferential,
                         ::testing::Values(std::size_t{16},
                                           std::size_t{64}));

// ---------------------------------------------------------------------
// Presence states: the demand-paging encoding in software bits 61:57.
// ---------------------------------------------------------------------

TEST(EptEntry, SwappedEncodingRoundTrips)
{
    EptEntry e = EptEntry::makeSwapped(0x123, Perms::RW);
    EXPECT_FALSE(e.present()); // no permission bits: hardware faults
    EXPECT_EQ(e.presState(), PresState::Swapped);
    EXPECT_EQ(e.swapSlot(), 0x123u);
    EXPECT_EQ(e.savedPerms(), Perms::RW);
    EXPECT_FALSE(e.isLarge());
}

TEST(EptEntry, BalloonedEncodingRoundTrips)
{
    EptEntry e = EptEntry::makeBallooned(Perms::RWX);
    EXPECT_FALSE(e.present());
    EXPECT_EQ(e.presState(), PresState::Ballooned);
    EXPECT_EQ(e.savedPerms(), Perms::RWX);
    EXPECT_EQ(EptEntry::make(0x1000, Perms::RW).presState(),
              PresState::Normal);
}

TEST_F(EptTest, MarkSwappedAndPresentRoundTrip)
{
    Ept ept(memory, alloc);
    auto frame = alloc.alloc();
    ASSERT_TRUE(frame);
    ASSERT_TRUE(ept.map(0x5000, *frame, Perms::RW));

    // Demote: translation disappears, state and slot are recorded.
    ASSERT_TRUE(markSwapped(ept, 0x5000, 77));
    EXPECT_EQ(ept.entryState(0x5000), PresState::Swapped);
    EXPECT_FALSE(ept.translate(0x5000).has_value());
    auto leaf = ept.leafEntry(0x5000);
    ASSERT_TRUE(leaf);
    EXPECT_EQ(leaf->swapSlot(), 77u);

    // Promote: the saved permissions come back, A/D start clear.
    ASSERT_TRUE(markPresent(ept, 0x5000, *frame));
    EXPECT_EQ(ept.entryState(0x5000), PresState::Normal);
    auto xlat = ept.translate(0x5000);
    ASSERT_TRUE(xlat);
    EXPECT_EQ(xlat->hpa, *frame);
    EXPECT_EQ(xlat->perms, Perms::RW);
    leaf = ept.leafEntry(0x5000);
    ASSERT_TRUE(leaf);
    EXPECT_FALSE(leaf->accessed());
    alloc.free(*frame);
}

TEST_F(EptTest, MarkSwappedBumpsGenerationAndNeedsPresentLeaf)
{
    Ept ept(memory, alloc);
    auto frame = alloc.alloc();
    ASSERT_TRUE(frame);
    ASSERT_TRUE(ept.map(0x5000, *frame, Perms::RW));

    EXPECT_FALSE(markSwapped(ept, 0x6000, 1)); // unmapped GPA
    const std::uint64_t gen = ept.generation();
    ASSERT_TRUE(markBallooned(ept, 0x5000));
    EXPECT_GT(ept.generation(), gen); // revocation: cached walks must die
    EXPECT_FALSE(markSwapped(ept, 0x5000, 1)); // already non-present
    alloc.free(*frame);
}

TEST_F(EptTest, MapRejectsSwappedSlotAndUnmapClearsIt)
{
    Ept ept(memory, alloc);
    auto frame = alloc.alloc();
    ASSERT_TRUE(frame);
    ASSERT_TRUE(ept.map(0x5000, *frame, Perms::RW));
    ASSERT_TRUE(markSwapped(ept, 0x5000, 3));

    // The slot is occupied even though non-present: a new map must
    // not silently overwrite the record of the swapped page.
    EXPECT_FALSE(ept.map(0x5000, *frame, Perms::RW));
    EXPECT_TRUE(ept.unmap(0x5000));
    EXPECT_EQ(ept.entryState(0x5000), PresState::Normal);
    EXPECT_TRUE(ept.map(0x5000, *frame, Perms::RW));
    alloc.free(*frame);
}

TEST_F(EptTest, AccessedAndClearDrivesTheClockHand)
{
    Ept ept(memory, alloc);
    auto frame = alloc.alloc();
    ASSERT_TRUE(frame);
    ASSERT_TRUE(ept.map(0x5000, *frame, Perms::RW));

    // Fresh mapping: not accessed.
    EXPECT_FALSE(accessedAndClear(ept, 0x5000));
    ASSERT_TRUE(
        hardwareWalkAd(memory, ept.eptp(), 0x5000, false).has_value());
    EXPECT_TRUE(accessedAndClear(ept, 0x5000)); // walk set it, now cleared
    EXPECT_FALSE(accessedAndClear(ept, 0x5000));
    alloc.free(*frame);
}

TEST_F(EptTest, RemapAtTheSameGpaKeepsTheLeafSlot)
{
    // The pager resolves a mapping's leaf slot once: unmapping frees no
    // table, so a remap of the same GPA writes the same slot, and the
    // slot forms act on the remapped leaf.
    Ept ept(memory, alloc);
    auto frames = alloc.alloc(8);
    ASSERT_TRUE(frames);
    const Gpa gpa = 0x400000;
    ASSERT_TRUE(ept.mapRange(gpa, *frames, 4 * pageSize, Perms::RW));
    auto slot = ept.pageLeaf(gpa + pageSize);
    ASSERT_TRUE(slot);

    EXPECT_EQ(ept.unmapRange(gpa, 4 * pageSize), 4u);
    const std::uint64_t tables = ept.tablePages();
    ASSERT_TRUE(ept.mapRange(gpa, *frames + 4 * pageSize, 4 * pageSize,
                             Perms::Read));
    EXPECT_EQ(ept.tablePages(), tables);
    auto again = ept.pageLeaf(gpa + pageSize);
    ASSERT_TRUE(again);
    EXPECT_EQ(again->slot, slot->slot);

    ASSERT_TRUE(ept.markSwapped(*slot, 9));
    EXPECT_EQ(ept.leafEntry(gpa + pageSize)->swapSlot(), 9u);
    EXPECT_FALSE(ept.accessedAndClear(*slot)); // not present
    ASSERT_TRUE(ept.markPresent(*slot, *frames + 5 * pageSize));
    auto xlat = ept.translate(gpa + pageSize);
    ASSERT_TRUE(xlat);
    EXPECT_EQ(xlat->hpa, *frames + 5 * pageSize);
    EXPECT_EQ(xlat->perms, Perms::Read);

    // A 2 MiB leaf has no 4 KiB slot.
    auto big = alloc.allocAligned(512, 512);
    ASSERT_TRUE(big);
    ASSERT_TRUE(ept.mapLarge(0x800000, *big, Perms::RW));
    EXPECT_FALSE(ept.pageLeaf(0x801000));
    EXPECT_FALSE(ept.pageLeaf(0x40000000)); // no table at all
    alloc.free(*big, 512);
    alloc.free(*frames, 8);
}

} // namespace
