#include "mem/backing_store.hh"

#include "base/logging.hh"

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
    : totalSlots(slot_count), used(slot_count, false),
      data(deviceBytes(slot_count))
{
}

std::optional<std::uint64_t>
BackingStore::alloc()
{
    if (allocatedSlots == totalSlots)
        return std::nullopt;
    for (std::uint64_t probe = 0; probe < totalSlots; ++probe) {
        const std::uint64_t slot =
            (searchHint + probe) % totalSlots;
        if (used[slot])
            continue;
        used[slot] = true;
        ++allocatedSlots;
        searchHint = (slot + 1) % totalSlots;
        return slot;
    }
    return std::nullopt;
}

void
BackingStore::free(std::uint64_t slot)
{
    panic_if(slot >= totalSlots, "backing-store slot %llu out of range",
             (unsigned long long)slot);
    panic_if(!used[slot], "double free of backing-store slot %llu",
             (unsigned long long)slot);
    used[slot] = false;
    --allocatedSlots;
    // Scrub so a buggy read of a freed slot cannot leak stale bytes.
    data.zero(slot * pageSize, pageSize);
}

void
BackingStore::write(std::uint64_t slot, const std::uint8_t *src)
{
    panic_if(slot >= totalSlots || !used[slot],
             "write to unallocated backing-store slot %llu",
             (unsigned long long)slot);
    data.write(slot * pageSize, src, pageSize);
}

void
BackingStore::read(std::uint64_t slot, std::uint8_t *dst) const
{
    panic_if(slot >= totalSlots || !used[slot],
             "read from unallocated backing-store slot %llu",
             (unsigned long long)slot);
    data.read(slot * pageSize, dst, pageSize);
}

bool
BackingStore::isAllocated(std::uint64_t slot) const
{
    return slot < totalSlots && used[slot];
}

} // namespace elisa::mem
