#include "mem/frame_allocator.hh"

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
    // first from frame 0.
    std::optional<std::uint64_t> base = findRun(searchHint, count);
    if (!base)
        base = findRun(0, count);
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

    std::uint64_t base = 0;
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
