/**
 * @file
 * Simulated swap device backing demand-paged frames.
 *
 * A BackingStore is a fixed array of 4 KiB slots on a pretend NVMe
 * device: the pager writes a victim frame's bytes into a slot on
 * eviction and reads them back on the resolving EPT-violation fault.
 * The device itself is pure storage — latency is charged by the pager
 * from the CostModel (swapInNs/swapOutNs), and failures are injected
 * through sim::FaultPlan's PageIn site, so this file stays at the
 * bottom of the layering next to HostMemory.
 */

#ifndef ELISA_MEM_BACKING_STORE_HH
#define ELISA_MEM_BACKING_STORE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "base/types.hh"
#include "mem/host_memory.hh"

namespace elisa::mem
{

/**
 * Slot-granular swap storage (one slot = one 4 KiB page).
 */
class BackingStore
{
  public:
    /** Create a device of @p slot_count page slots (zero-filled). */
    explicit BackingStore(std::uint64_t slot_count);

    BackingStore(const BackingStore &) = delete;
    BackingStore &operator=(const BackingStore &) = delete;

    /**
     * Reserve one free slot (rotating first fit, deterministic).
     * @return the slot id, or std::nullopt when the device is full.
     */
    std::optional<std::uint64_t> alloc();

    /** Release @p slot (panics on double free). */
    void free(std::uint64_t slot);

    /** Copy one page of bytes into @p slot. */
    void write(std::uint64_t slot, const std::uint8_t *src);

    /** Copy one page of bytes out of @p slot. */
    void read(std::uint64_t slot, std::uint8_t *dst) const;

    /** Total slots on the device. */
    std::uint64_t capacity() const { return totalSlots; }

    /** Slots currently holding a swapped-out page. */
    std::uint64_t usedSlots() const { return allocatedSlots; }

    /** Slots still free. */
    std::uint64_t freeSlots() const
    {
        return totalSlots - allocatedSlots;
    }

    /** True when @p slot is currently allocated. */
    bool isAllocated(std::uint64_t slot) const;

  private:
    std::uint64_t totalSlots;
    std::uint64_t allocatedSlots = 0;
    /** Next slot to start searching from (rotating first fit). */
    std::uint64_t searchHint = 0;
    /** One bit per slot: allocated. */
    std::vector<std::uint64_t> used;
    /** Slot bytes; slots never written stay unbacked on the host. */
    HostMemory data;
};

} // namespace elisa::mem

#endif // ELISA_MEM_BACKING_STORE_HH
