/**
 * @file
 * Unit + property tests for simulated physical memory and the frame
 * allocator.
 */

#include <algorithm>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/units.hh"
#include "cpu/guest_view.hh"
#include "cpu/vcpu.hh"
#include "ept/ept.hh"
#include "frame_checks.hh"
#include "mem/backing_store.hh"
#include "mem/frame_allocator.hh"
#include "mem/host_memory.hh"
#include "sim/cost_model.hh"
#include "sim/rng.hh"

namespace
{

using namespace elisa;
using namespace elisa::mem;

TEST(HostMemory, SizeAndContains)
{
    HostMemory m(1 * MiB);
    EXPECT_EQ(m.size(), 1 * MiB);
    EXPECT_EQ(m.frameCount(), 256u);
    EXPECT_TRUE(m.contains(0));
    EXPECT_TRUE(m.contains(MiB - 1));
    EXPECT_FALSE(m.contains(MiB));
    EXPECT_TRUE(m.contains(0, MiB));
    EXPECT_FALSE(m.contains(1, MiB));
    EXPECT_FALSE(m.contains(0, 0)); // zero-length is invalid
}

TEST(HostMemory, ReadWrite64)
{
    HostMemory m(64 * KiB);
    m.write64(0x100, 0xdeadbeefcafef00dull);
    EXPECT_EQ(m.read64(0x100), 0xdeadbeefcafef00dull);
    // Initially zeroed.
    EXPECT_EQ(m.read64(0x2000), 0u);
}

TEST(HostMemory, BulkCopyAndZero)
{
    HostMemory m(64 * KiB);
    std::vector<std::uint8_t> src(5000);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::uint8_t>(i * 7);
    m.write(0x800, src.data(), src.size());
    std::vector<std::uint8_t> dst(src.size());
    m.read(0x800, dst.data(), dst.size());
    EXPECT_EQ(src, dst);
    m.zero(0x800, src.size());
    m.read(0x800, dst.data(), dst.size());
    EXPECT_TRUE(std::all_of(dst.begin(), dst.end(),
                            [](std::uint8_t b) { return b == 0; }));
}

TEST(HostMemory, RawPointerIsStable)
{
    HostMemory m(64 * KiB);
    std::uint8_t *p = m.raw(0x1000);
    *p = 0x5a;
    EXPECT_EQ(m.raw(0x1000)[0], 0x5a);
}

TEST(FrameAllocator, AllocFreeBasics)
{
    HostMemory memory(16 * pageSize);
    FrameAllocator a(memory);
    EXPECT_EQ(a.total(), 16u);
    auto f1 = a.alloc();
    ASSERT_TRUE(f1);
    EXPECT_TRUE(isPageAligned(*f1));
    EXPECT_EQ(a.allocated(), 1u);
    EXPECT_TRUE(a.isAllocated(*f1));
    a.free(*f1);
    EXPECT_EQ(a.allocated(), 0u);
    EXPECT_FALSE(a.isAllocated(*f1));
}

TEST(FrameAllocator, ContiguousRuns)
{
    HostMemory memory(16 * pageSize);
    FrameAllocator a(memory);
    auto run = a.alloc(8);
    ASSERT_TRUE(run);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_TRUE(a.isAllocated(*run + i * pageSize));
    auto run2 = a.alloc(8);
    ASSERT_TRUE(run2);
    EXPECT_NE(*run, *run2);
    // Now full.
    EXPECT_FALSE(a.alloc(1));
    a.free(*run, 8);
    auto run3 = a.alloc(8);
    ASSERT_TRUE(run3);
}

TEST(FrameAllocator, ExhaustionReturnsNullopt)
{
    HostMemory memory(4 * pageSize);
    FrameAllocator a(memory);
    EXPECT_TRUE(a.alloc(4));
    EXPECT_FALSE(a.alloc(1));
}

TEST(FrameAllocator, FragmentationHandled)
{
    HostMemory memory(8 * pageSize);
    FrameAllocator a(memory);
    auto f0 = a.alloc(2);
    auto f1 = a.alloc(2);
    auto f2 = a.alloc(2);
    auto f3 = a.alloc(2);
    ASSERT_TRUE(f0 && f1 && f2 && f3);
    a.free(*f1, 2);
    a.free(*f3, 2);
    // 4 free frames but no contiguous run of 4 (2+2 split).
    EXPECT_EQ(a.freeFrames(), 4u);
    EXPECT_FALSE(a.alloc(4));
    EXPECT_TRUE(a.alloc(2));
}

/** Count the zero bytes in @p frames frames starting at @p base. */
std::uint64_t
countZeroBytes(const HostMemory &memory, Hpa base, std::uint64_t frames)
{
    const std::uint8_t *bytes = memory.raw(base, frames * pageSize);
    return std::count(bytes, bytes + frames * pageSize, 0);
}

/** Fill @p frames frames starting at @p base with a non-zero pattern. */
void
dirty(HostMemory &memory, Hpa base, std::uint64_t frames)
{
    std::memset(memory.raw(base, frames * pageSize), 0xa5,
                frames * pageSize);
}

TEST(FrameAllocator, ReusedFramesReadAsZero)
{
    HostMemory memory(16 * pageSize);
    FrameAllocator alloc(memory);

    // alloc(): a freed run is handed out again next, and reads zero.
    auto first = alloc.alloc(8);
    ASSERT_TRUE(first);
    dirty(memory, *first, 8);
    alloc.free(*first, 8);
    auto reused = alloc.alloc(8);
    ASSERT_TRUE(reused);
    EXPECT_EQ(*reused, *first);
    EXPECT_EQ(countZeroBytes(memory, *reused, 8), 8 * pageSize);
    alloc.free(*reused, 8);

    // An allocation with no free before it goes on from the hand: with
    // [0, 2) and [4, 8) freed, a run of 4 refills [4, 8), and the next
    // run of 2 lands at frame 12, not in the hole at frame 0.
    const Hpa low = *alloc.alloc(2);
    alloc.alloc(2);
    const Hpa run = *alloc.alloc(4);
    alloc.alloc(4);
    EXPECT_EQ(run, 4 * pageSize);
    dirty(memory, run, 4);
    alloc.free(low, 2);
    alloc.free(run, 4);
    auto refill = alloc.alloc(4);
    ASSERT_TRUE(refill);
    EXPECT_EQ(*refill, run);
    EXPECT_EQ(countZeroBytes(memory, *refill, 4), 4 * pageSize);
    auto next = alloc.alloc(2);
    ASSERT_TRUE(next);
    EXPECT_EQ(*next, 12 * pageSize);
    alloc.free(2 * pageSize, 2);
    alloc.free(*refill, 4);
    alloc.free(8 * pageSize, 4);
    alloc.free(*next, 2);
    ASSERT_EQ(alloc.allocated(), 0u);

    // allocAligned(): first fit from frame 0 lands on the same run.
    auto aligned = alloc.allocAligned(8, 8);
    ASSERT_TRUE(aligned);
    dirty(memory, *aligned, 8);
    alloc.free(*aligned, 8);
    auto aligned_again = alloc.allocAligned(8, 8);
    ASSERT_TRUE(aligned_again);
    EXPECT_EQ(*aligned_again, *aligned);
    EXPECT_EQ(countZeroBytes(memory, *aligned_again, 8), 8 * pageSize);
}

/** Property sweep: random alloc/free never double-allocates or leaks. */
class FrameAllocatorProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FrameAllocatorProperty, NoOverlapUnderRandomWorkload)
{
    const unsigned seed = GetParam();
    sim::Rng rng(seed);
    HostMemory memory(128 * pageSize);
    FrameAllocator alloc(memory);
    // Track every frame we believe we own.
    std::set<std::uint64_t> owned;
    std::vector<std::pair<Hpa, std::uint64_t>> live;

    for (int iter = 0; iter < 2000; ++iter) {
        if (live.empty() || rng.chance(0.6)) {
            const std::uint64_t count = 1 + rng.below(6);
            auto base = alloc.alloc(count);
            if (!base)
                continue;
            for (std::uint64_t i = 0; i < count; ++i) {
                const std::uint64_t frame = *base / pageSize + i;
                // The core property: never hand out an owned frame.
                ASSERT_TRUE(owned.insert(frame).second)
                    << "frame " << frame << " double-allocated";
            }
            // Runs mix reused and never-used frames in every order;
            // each reads as zero, then is dirtied for its next owner.
            ASSERT_EQ(countZeroBytes(memory, *base, count), count * pageSize);
            dirty(memory, *base, count);
            live.emplace_back(*base, count);
        } else {
            const std::size_t pick = rng.below(live.size());
            auto [base, count] = live[pick];
            alloc.free(base, count);
            for (std::uint64_t i = 0; i < count; ++i)
                owned.erase(base / pageSize + i);
            live[pick] = live.back();
            live.pop_back();
        }
        ASSERT_EQ(alloc.allocated(), owned.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameAllocatorProperty,
                         ::testing::Values(1u, 2u, 3u, 17u, 42u));

TEST(FrameAllocatorDeathTest, DoubleFreePanics)
{
    EXPECT_DEATH(
        {
            HostMemory memory(16 * pageSize);
            FrameAllocator alloc(memory);
            const Hpa run = *alloc.alloc(4);
            alloc.free(run + 2 * pageSize, 2);
            alloc.free(run, 4);
        },
        "double free of frame 2");
}

/**
 * The frame allocator as it was written before its bitmap went word at
 * a time: one bit per frame, tested one at a time. Placement is part of
 * the simulated result (HPAs hash into TLB sets), so the word-at-a-time
 * search must pick the frames this one picks. alloc() is rotating first
 * fit, and free() moves the hint back onto a freed run below it, so
 * freed frames are handed out again first; allocAligned() is first fit
 * from frame 0. The rewind kept every recorded perfbench digest;
 * address-ordered first fit in alloc() moved all ten kvs_mix digests.
 */
class BitAtATimeAllocator
{
  public:
    explicit BitAtATimeAllocator(std::uint64_t frames) : used(frames) {}

    std::optional<std::uint64_t>
    alloc(std::uint64_t count)
    {
        if (count > used.size() - allocated)
            return std::nullopt;
        auto scan_from = [this, count](std::uint64_t start)
            -> std::optional<std::uint64_t> {
            std::uint64_t run = 0;
            for (std::uint64_t i = start; i < used.size(); ++i) {
                if (used[i])
                    run = 0;
                else if (++run == count)
                    return i + 1 - count;
            }
            return std::nullopt;
        };
        std::optional<std::uint64_t> base = scan_from(hint);
        if (!base)
            base = scan_from(0);
        if (!base)
            return std::nullopt;
        take(*base, count);
        hint = *base + count == used.size() ? 0 : *base + count;
        return base;
    }

    std::optional<std::uint64_t>
    allocAligned(std::uint64_t count, std::uint64_t align)
    {
        if (count > used.size() - allocated)
            return std::nullopt;
        for (std::uint64_t base = 0; base + count <= used.size();
             base += align) {
            bool fits = true;
            for (std::uint64_t i = base; i < base + count && fits; ++i)
                fits = !used[i];
            if (fits) {
                take(base, count);
                return base;
            }
        }
        return std::nullopt;
    }

    void
    free(std::uint64_t first, std::uint64_t count)
    {
        for (std::uint64_t i = first; i < first + count; ++i)
            used[i] = false;
        allocated -= count;
        if (first < hint)
            hint = first;
    }

    std::vector<bool> used;
    std::uint64_t allocated = 0;

  private:
    void
    take(std::uint64_t first, std::uint64_t count)
    {
        for (std::uint64_t i = first; i < first + count; ++i)
            used[i] = true;
        allocated += count;
    }

    std::uint64_t hint = 0;
};

/**
 * Differential: FrameAllocator and the bit-at-a-time reference, driven
 * by one seeded sequence of runs of 1-600 frames, 2 MiB-aligned runs of
 * 512, runs aligned to other powers of two and frees, on a machine
 * whose frame count is not a multiple of 64 and that runs out and wraps
 * often, return the same frames and agree on every frame's state after
 * every operation.
 */
class FrameAllocatorDifferential : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FrameAllocatorDifferential, PlacementMatchesBitAtATime)
{
    sim::Rng rng(GetParam());
    constexpr std::uint64_t frames = 2085;
    HostMemory memory(frames * pageSize);
    FrameAllocator alloc(memory);
    BitAtATimeAllocator ref(frames);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> live;
    std::uint64_t failed = 0;
    for (int step = 0; step < 100000; ++step) {
        const unsigned op = static_cast<unsigned>(rng.below(100));
        if (live.empty() || op < 52) {
            std::optional<Hpa> got;
            std::optional<std::uint64_t> want;
            std::uint64_t count = 512;
            if (op < 5) {
                got = alloc.allocAligned(count, 512);
                want = ref.allocAligned(count, 512);
            } else if (op < 8) {
                count = 1 + rng.below(600);
                const std::uint64_t align = std::uint64_t{1} << rng.below(10);
                got = alloc.allocAligned(count, align);
                want = ref.allocAligned(count, align);
            } else {
                count = 1 + (rng.chance(0.5) ? rng.below(8) : rng.below(600));
                got = alloc.alloc(count);
                want = ref.alloc(count);
            }
            ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
            if (got) {
                ASSERT_EQ(*got, *want * pageSize) << "step " << step;
                live.emplace_back(*want, count);
            } else {
                ++failed;
            }
        } else {
            const std::size_t pick = rng.below(live.size());
            alloc.free(live[pick].first * pageSize, live[pick].second);
            ref.free(live[pick].first, live[pick].second);
            live[pick] = live.back();
            live.pop_back();
        }
        ASSERT_EQ(alloc.allocated(), ref.allocated) << "step " << step;
        std::uint64_t differ = 0;
        for (std::uint64_t f = 0; f < frames; ++f)
            differ += alloc.isAllocated(f * pageSize) != ref.used[f];
        ASSERT_EQ(differ, 0u) << "step " << step;
    }
    // The sequence did run the machine out, often.
    EXPECT_GT(failed, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameAllocatorDifferential,
                         ::testing::Values(1u, 2u));

TEST(HostMemory, WrittenBitsFollowMutableAccess)
{
    HostMemory m(16 * pageSize);
    EXPECT_FALSE(m.written(0));
    m.read64(0x1000);
    std::as_const(m).raw(0x2000, 2 * pageSize);
    EXPECT_FALSE(m.written(0x1000)); // reads mark nothing
    EXPECT_FALSE(m.written(0x3000));
    EXPECT_EQ(m.writtenLines(0x2000), 0u);
    m.raw(0x4ff8, 16);               // spans two frames
    EXPECT_TRUE(m.written(0x4000));
    EXPECT_TRUE(m.written(0x5000));
    EXPECT_FALSE(m.written(0x6000));
    EXPECT_EQ(m.writtenLines(0x4000), std::uint64_t{1} << 63);
    EXPECT_EQ(m.writtenLines(0x5000), 1u);

    m.write64(0x7000, 1);
    m.zeroWritten(0x4000, 4 * pageSize); // frames 4..7
    EXPECT_FALSE(m.written(0x4000));
    EXPECT_FALSE(m.written(0x7000));
    EXPECT_EQ(m.writtenLines(0x4000), 0u);
    EXPECT_EQ(m.read64(0x7000), 0u);

    m.write64(0x8040, 1); // line 1 of frame 8
    EXPECT_EQ(m.writtenLines(0x8000), 0b10u);
    m.raw(0x80bf, 2); // the last byte of line 2, the first of line 3
    EXPECT_EQ(m.writtenLines(0x8000), 0b1110u);
    // The last line of frame 9, all of frame 10, the first line of 11.
    m.raw(0x9fc0, pageSize + 0x41);
    EXPECT_EQ(m.writtenLines(0x9000), std::uint64_t{1} << 63);
    EXPECT_EQ(m.writtenLines(0xa000), ~std::uint64_t{0});
    EXPECT_EQ(m.writtenLines(0xb000), 1u);
    for (Hpa frame = 0; frame < 16 * pageSize; frame += pageSize)
        EXPECT_EQ(m.written(frame), m.writtenLines(frame) != 0) << frame;
}

TEST(HostMemory, ZeroWrittenScrubsTheWrittenLines)
{
    HostMemory m(16 * pageSize);
    const std::vector<std::uint8_t> ones(3 * pageSize, 0xff);
    m.write(0x1fc1, ones.data(), 0x80);       // a run across frames 1-2
    m.write(0x2800, ones.data(), 1);          // a run of one line
    m.write(0x3000, ones.data(), 2 * pageSize); // whole frames 3 and 4
    m.write64(0x5ff8, ~std::uint64_t{0});     // the last line of frame 5
    m.zeroWritten(0x1000, 5 * pageSize);
    for (Hpa frame = 0x1000; frame < 0x6000; frame += pageSize) {
        EXPECT_FALSE(m.written(frame)) << frame;
        EXPECT_EQ(m.writtenLines(frame), 0u) << frame;
    }
    EXPECT_EQ(countZeroBytes(m, 0, 16), 16 * pageSize);
    EXPECT_TRUE(test::unwrittenLinesWithBytes(m).empty());
}

/** A vCPU handler for guests that make no hypercall. */
struct NoHypercalls : cpu::HypercallSink
{
    std::uint64_t
    handleHypercall(cpu::Vcpu &, const cpu::HypercallArgs &) override
    {
        return 0;
    }
};

/**
 * Property: a run handed out reads zero however its frames were
 * written before, and a frame whose written bit is clear reads zero.
 * Runs come from alloc() and allocAligned() and are freed at random;
 * live runs are written through every mutable path, with non-zero
 * bytes and across page boundaries where the path allows it.
 */
class WrittenFramesProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(WrittenFramesProperty, HandedOutRunsReadZero)
{
    sim::Rng rng(GetParam());
    HostMemory memory(1 * MiB);
    FrameAllocator alloc(memory);
    // GuestView accesses reach GPA == HPA through an identity context.
    ept::Ept identity(memory, alloc);
    ASSERT_TRUE(identity.mapRange(0, 0, memory.size(), ept::Perms::RW));
    const sim::CostModel cost;
    NoHypercalls sink;
    cpu::Vcpu vcpu(0, 0, memory, alloc, cost, &sink);
    vcpu.eptpList().set(0, identity.eptp());
    vcpu.activateEptp(0);
    cpu::GuestView view(vcpu);

    constexpr std::uint64_t maxRun = 12;
    std::vector<std::uint8_t> bytes(maxRun * pageSize);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(1 + i % 251);

    std::vector<std::pair<Hpa, std::uint64_t>> live;
    std::uint64_t handedOut = 0;
    for (int step = 0; step < 12000; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const unsigned op = static_cast<unsigned>(rng.below(100));
        if (live.empty() || op < 25) {
            const std::uint64_t count = 1 + rng.below(maxRun);
            auto base = rng.chance(0.3)
                            ? alloc.allocAligned(count, 1ull << rng.below(4))
                            : alloc.alloc(count);
            if (!base)
                continue;
            ASSERT_EQ(countZeroBytes(memory, *base, count), count * pageSize);
            live.emplace_back(*base, count);
            ++handedOut;
            continue;
        }
        if (op < 50) {
            const std::size_t pick = rng.below(live.size());
            alloc.free(live[pick].first, live[pick].second);
            live[pick] = live.back();
            live.pop_back();
            continue;
        }
        const auto [base, count] = live[rng.below(live.size())];
        const std::uint64_t run = count * pageSize;
        const std::uint64_t off = rng.below(run);
        const std::uint64_t len = 1 + rng.below(run - off);
        const Hpa at = base + off;
        switch (op % 7) {
          case 0:
            memory.write64(base + (off & ~std::uint64_t{7}),
                           0x0123456789abcdefull);
            break;
          case 1:
            memory.write(at, bytes.data(), len);
            break;
          case 2:
            // Part of one page.
            memory.zero(at, std::min(len, pageSize - (at & pageMask)));
            break;
          case 3:
            std::memset(memory.raw(at, len), 0xa5, len);
            break;
          case 4:
            view.writeBytes(at, bytes.data(), len);
            break;
          case 5:
            view.zeroBytes(at, len);
            break;
          default: {
            // From the start of another live run (possibly the same).
            const auto [src, src_count] = live[rng.below(live.size())];
            view.copyBytes(at, src, std::min(len, src_count * pageSize));
            break;
          }
        }
    }
    EXPECT_GT(handedOut, 2000u);
    const std::vector<std::uint64_t> leaked =
        test::unwrittenLinesWithBytes(memory);
    EXPECT_TRUE(leaked.empty()) << leaked.size() << " lines, first "
                                << (leaked.empty() ? 0 : leaked[0]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WrittenFramesProperty,
                         ::testing::Values(1u, 2u));

// ---------------------------------------------------------------------
// BackingStore: the simulated swap device behind the demand pager.
// ---------------------------------------------------------------------

TEST(BackingStore, SlotRoundTripPreservesBytes)
{
    BackingStore store(8);
    EXPECT_EQ(store.capacity(), 8u);
    EXPECT_EQ(store.usedSlots(), 0u);

    std::vector<std::uint8_t> page(pageSize);
    for (std::uint64_t i = 0; i < pageSize; ++i)
        page[i] = static_cast<std::uint8_t>(i * 7);

    auto slot = store.alloc();
    ASSERT_TRUE(slot);
    EXPECT_TRUE(store.isAllocated(*slot));
    store.write(*slot, page.data());

    std::vector<std::uint8_t> back(pageSize, 0);
    store.read(*slot, back.data());
    EXPECT_EQ(back, page);
    store.free(*slot);
    EXPECT_FALSE(store.isAllocated(*slot));
    EXPECT_EQ(store.freeSlots(), 8u);
}

TEST(BackingStore, ExhaustionAndRecycling)
{
    BackingStore store(4);
    std::vector<std::uint64_t> slots;
    for (unsigned i = 0; i < 4; ++i) {
        auto slot = store.alloc();
        ASSERT_TRUE(slot);
        slots.push_back(*slot);
    }
    EXPECT_FALSE(store.alloc()); // full
    store.free(slots[1]);
    auto again = store.alloc(); // the freed slot is reusable
    ASSERT_TRUE(again);
    EXPECT_EQ(*again, slots[1]);
}

TEST(BackingStore, FreeScrubsTheSlot)
{
    // A recycled slot must not leak the previous tenant's bytes — the
    // pager relies on this for cross-VM isolation of swap contents.
    BackingStore store(1);
    std::vector<std::uint8_t> page(pageSize, 0xaa);
    auto slot = store.alloc();
    ASSERT_TRUE(slot);
    store.write(*slot, page.data());
    store.free(*slot);

    auto reused = store.alloc();
    ASSERT_TRUE(reused);
    ASSERT_EQ(*reused, *slot);
    std::vector<std::uint8_t> back(pageSize, 0xff);
    store.read(*reused, back.data());
    EXPECT_EQ(back, std::vector<std::uint8_t>(pageSize, 0));
}

/**
 * The slot search BackingStore::alloc made before it searched a word at
 * a time: rotating first fit, one slot per probe.
 */
struct ProbingSlots
{
    explicit ProbingSlots(std::uint64_t slots) : used(slots, false) {}

    std::optional<std::uint64_t>
    alloc()
    {
        if (allocated == used.size())
            return std::nullopt;
        for (std::uint64_t probe = 0; probe < used.size(); ++probe) {
            const std::uint64_t slot = (hint + probe) % used.size();
            if (used[slot])
                continue;
            used[slot] = true;
            ++allocated;
            hint = (slot + 1) % used.size();
            return slot;
        }
        return std::nullopt;
    }

    void
    free(std::uint64_t slot)
    {
        used[slot] = false;
        --allocated;
    }

    std::vector<bool> used;
    std::uint64_t allocated = 0;
    std::uint64_t hint = 0;
};

/**
 * Differential: seeded alloc/free sequences on devices of 1 to 201
 * slots (sizes around and off multiples of 64) that fill up and wrap
 * often hand out the slot ids the one-slot probe did and agree on
 * every slot's state after every operation.
 */
class BackingStoreDifferential : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BackingStoreDifferential, SlotsMatchOneSlotProbe)
{
    for (const std::uint64_t slots : {1u, 63u, 64u, 65u, 130u, 201u}) {
        sim::Rng rng(GetParam() * 1000 + slots);
        BackingStore store(slots);
        ProbingSlots ref(slots);
        std::vector<std::uint64_t> live;
        std::uint64_t full = 0;
        std::uint64_t wraps = 0;
        std::uint64_t last = 0;
        for (int step = 0; step < 20000; ++step) {
            if (live.empty() || rng.below(100) < 55) {
                const auto got = store.alloc();
                const auto want = ref.alloc();
                ASSERT_EQ(got, want) << slots << " slots, step " << step;
                if (got) {
                    wraps += *got < last;
                    last = *got;
                    live.push_back(*got);
                } else {
                    ++full;
                }
            } else {
                const std::size_t pick = rng.below(live.size());
                store.free(live[pick]);
                ref.free(live[pick]);
                live[pick] = live.back();
                live.pop_back();
            }
            ASSERT_EQ(store.usedSlots(), ref.allocated)
                << slots << " slots, step " << step;
            for (std::uint64_t slot = 0; slot < slots; ++slot)
                ASSERT_EQ(store.isAllocated(slot), ref.used[slot])
                    << slots << " slots, step " << step;
        }
        // The sequences did run the device out and wrap, often.
        EXPECT_GT(full, 100u) << slots << " slots";
        if (slots > 1) {
            EXPECT_GT(wraps, 100u) << slots << " slots";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackingStoreDifferential,
                         ::testing::Values(1u, 2u));

// ---------------------------------------------------------------------
// Per-owner occupancy book.
// ---------------------------------------------------------------------

TEST(FrameAllocator, OwnerOccupancyBook)
{
    HostMemory memory(256 * pageSize);
    FrameAllocator alloc(memory);
    EXPECT_EQ(alloc.ownerUsage(1), nullptr);

    alloc.noteOwner(1, 64);
    alloc.addResident(1, 3);
    alloc.addSwapped(1, 2);
    alloc.addResident(1, -1);
    alloc.setBalloonTarget(1, 8);

    const auto *usage = alloc.ownerUsage(1);
    ASSERT_NE(usage, nullptr);
    EXPECT_EQ(usage->reservedFrames, 64u);
    EXPECT_EQ(usage->residentFrames, 2u);
    EXPECT_EQ(usage->swappedFrames, 2u);
    EXPECT_EQ(usage->balloonTargetFrames, 8u);

    // Re-registration updates the reservation, keeps the counters.
    alloc.noteOwner(1, 128);
    EXPECT_EQ(alloc.ownerUsage(1)->reservedFrames, 128u);
    EXPECT_EQ(alloc.ownerUsage(1)->residentFrames, 2u);

    alloc.dropOwner(1);
    EXPECT_EQ(alloc.ownerUsage(1), nullptr);
}

} // namespace
