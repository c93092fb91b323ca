#include "mem/backing_store.hh"

#include "base/bitops.hh"
#include "base/logging.hh"
#include "mem/bitmap.hh"

namespace elisa::mem
{

namespace
{

std::uint64_t
deviceBytes(std::uint64_t slot_count)
{
    fatal_if(slot_count == 0, "empty backing store");
    return slot_count * pageSize;
}

} // anonymous namespace

BackingStore::BackingStore(std::uint64_t slot_count)
    : totalSlots(slot_count), used(divCeil(slot_count, 64), 0),
      data(deviceBytes(slot_count))
{
}

std::optional<std::uint64_t>
BackingStore::alloc()
{
    if (allocatedSlots == totalSlots)
        return std::nullopt;
    // Rotating first fit: the first free slot at or after the hint,
    // else the first one below it.
    std::uint64_t slot = findBit(used, searchHint, totalSlots, false);
    if (slot == totalSlots)
        slot = findBit(used, 0, searchHint, false);
    used[slot / 64] |= std::uint64_t{1} << (slot % 64);
    ++allocatedSlots;
    searchHint = slot + 1 == totalSlots ? 0 : slot + 1;
    return slot;
}

void
BackingStore::free(std::uint64_t slot)
{
    panic_if(slot >= totalSlots, "backing-store slot %llu out of range",
             (unsigned long long)slot);
    panic_if(!isAllocated(slot), "double free of backing-store slot %llu",
             (unsigned long long)slot);
    used[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    --allocatedSlots;
    // Scrub so a buggy read of a freed slot cannot leak stale bytes.
    data.zero(slot * pageSize, pageSize);
}

void
BackingStore::write(std::uint64_t slot, const std::uint8_t *src)
{
    panic_if(!isAllocated(slot),
             "write to unallocated backing-store slot %llu",
             (unsigned long long)slot);
    data.write(slot * pageSize, src, pageSize);
}

void
BackingStore::read(std::uint64_t slot, std::uint8_t *dst) const
{
    panic_if(!isAllocated(slot),
             "read from unallocated backing-store slot %llu",
             (unsigned long long)slot);
    data.read(slot * pageSize, dst, pageSize);
}

bool
BackingStore::isAllocated(std::uint64_t slot) const
{
    return slot < totalSlots && (used[slot / 64] >> (slot % 64)) & 1;
}

} // namespace elisa::mem
