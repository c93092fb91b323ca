#include "mem/frame_allocator.hh"

#include <algorithm>

#include "base/logging.hh"
#include "mem/bitmap.hh"

namespace elisa::mem
{

FrameAllocator::FrameAllocator(HostMemory &memory)
    : mem(memory), totalFrames(memory.frameCount()),
      used((totalFrames + 63) / 64, 0)
{
}

void
FrameAllocator::handOut(std::uint64_t first, std::uint64_t count)
{
    fillBits(used, first, first + count, true);
    mem.zeroWritten(first * pageSize, count * pageSize);
    allocatedFrames += count;
    // Every frame below lowestFree is taken, so a run that covers it
    // starts at it; the index then moves to the next free frame.
    if (first == lowestFree)
        lowestFree = findBit(used, first + count, totalFrames, false);
}

std::optional<std::uint64_t>
FrameAllocator::findRun(std::uint64_t from, std::uint64_t count) const
{
    std::uint64_t base = findBit(used, from, totalFrames, false);
    while (base < totalFrames && count <= totalFrames - base) {
        const std::uint64_t taken =
            findBit(used, base, base + count, true);
        if (taken == base + count)
            return base;
        base = findBit(used, taken, totalFrames, false);
    }
    return std::nullopt;
}

std::optional<Hpa>
FrameAllocator::alloc(std::uint64_t count)
{
    panic_if(count == 0, "zero-length frame allocation");
    if (count > freeFrames())
        return std::nullopt;

    // Rotating first-fit: the first run at or after the hint, else the
    // first from frame 0. No run starts below lowestFree.
    std::optional<std::uint64_t> base =
        findRun(std::max(searchHint, lowestFree), count);
    if (!base)
        base = findRun(lowestFree, count);
    if (!base)
        return std::nullopt;

    handOut(*base, count);
    searchHint = *base + count;
    if (searchHint >= totalFrames)
        searchHint = 0;
    return *base * pageSize;
}

std::optional<Hpa>
FrameAllocator::allocAligned(std::uint64_t count,
                             std::uint64_t align_frames)
{
    panic_if(count == 0, "zero-length frame allocation");
    panic_if(align_frames == 0, "zero alignment");
    if (count > freeFrames())
        return std::nullopt;

    // First fit from frame 0 would pass every frame below lowestFree,
    // since all of them are taken: start at the first aligned base at
    // or after it, which returns the same base.
    panic_if(lowestFree < totalFrames &&
                 ((used[lowestFree / 64] >> (lowestFree % 64)) & 1),
             "lowest free frame %llu is taken",
             (unsigned long long)lowestFree);
    std::uint64_t base =
        lowestFree + (align_frames - lowestFree % align_frames) %
                         align_frames;
    while (base < totalFrames && count <= totalFrames - base) {
        const std::uint64_t taken = findBit(used, base, base + count, true);
        if (taken == base + count) {
            handOut(base, count);
            return base * pageSize;
        }
        // Every aligned base up to the next free frame overlaps a
        // taken one; go on from the first at or after that frame.
        const std::uint64_t next = findBit(used, taken, totalFrames, false);
        base = next + (align_frames - next % align_frames) % align_frames;
    }
    return std::nullopt;
}

void
FrameAllocator::free(Hpa base, std::uint64_t count)
{
    panic_if(!isPageAligned(base), "freeing unaligned HPA %llx",
             (unsigned long long)base);
    const std::uint64_t first = base / pageSize;
    panic_if(first + count > totalFrames,
             "freeing frames beyond physical memory");
    const std::uint64_t hole = findBit(used, first, first + count, false);
    panic_if(hole != first + count, "double free of frame %llu",
             (unsigned long long)hole);
    fillBits(used, first, first + count, false);
    allocatedFrames -= count;
    // Hand freed frames out again first: the host still backs them and
    // likely still caches them. An allocation with no free before it
    // goes on from where the last one ended, as rotating first fit.
    if (first < searchHint)
        searchHint = first;
    if (first < lowestFree)
        lowestFree = first;
}

bool
FrameAllocator::isAllocated(Hpa hpa) const
{
    const std::uint64_t frame = hpa / pageSize;
    panic_if(frame >= totalFrames, "HPA outside physical memory");
    return (used[frame / 64] >> (frame % 64)) & 1;
}

void
FrameAllocator::noteOwner(std::uint32_t owner,
                          std::uint64_t reserved_frames)
{
    owners[owner].reservedFrames = reserved_frames;
}

void
FrameAllocator::dropOwner(std::uint32_t owner)
{
    owners.erase(owner);
}

void
FrameAllocator::addResident(std::uint32_t owner, std::int64_t delta)
{
    auto it = owners.find(owner);
    panic_if(it == owners.end(), "resident charge for unknown owner %u",
             owner);
    const auto next =
        static_cast<std::int64_t>(it->second.residentFrames) + delta;
    panic_if(next < 0, "resident frames of owner %u under-run", owner);
    it->second.residentFrames = static_cast<std::uint64_t>(next);
}

void
FrameAllocator::addSwapped(std::uint32_t owner, std::int64_t delta)
{
    auto it = owners.find(owner);
    panic_if(it == owners.end(), "swapped charge for unknown owner %u",
             owner);
    const auto next =
        static_cast<std::int64_t>(it->second.swappedFrames) + delta;
    panic_if(next < 0, "swapped frames of owner %u under-run", owner);
    it->second.swappedFrames = static_cast<std::uint64_t>(next);
}

void
FrameAllocator::setBalloonTarget(std::uint32_t owner,
                                 std::uint64_t frames)
{
    auto it = owners.find(owner);
    panic_if(it == owners.end(), "balloon target for unknown owner %u",
             owner);
    it->second.balloonTargetFrames = frames;
}

const FrameAllocator::OwnerUsage *
FrameAllocator::ownerUsage(std::uint32_t owner) const
{
    auto it = owners.find(owner);
    return it == owners.end() ? nullptr : &it->second;
}

} // namespace elisa::mem
