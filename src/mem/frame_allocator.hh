/**
 * @file
 * Physical frame allocator for the simulated machine.
 *
 * A bitmap allocator over 4 KiB frames with first-fit contiguous
 * allocation. The hypervisor uses it for guest memory, EPT tables,
 * EPTP-list pages, NIC rings, and shared regions.
 *
 * Placement is part of the simulated result: the TLB index mixes in
 * an EPT root's HPA (ept::Tlb::indexOf). alloc() is rotating first
 * fit from a hand that each allocation moves past its run, and free()
 * moves the hand back onto a freed run that starts below it, so freed
 * frames are handed out again first. A series of allocations with no
 * free in between lands where the rotating hand alone would put it.
 * allocAligned() is first fit from frame 0 and leaves the hand alone.
 * The rewind kept every recorded perfbench digest and figure CSV and
 * took vm_churn's host RSS from 1,079 to 15 MiB, since a churned VM
 * lands on frames the host still backs. Address-ordered first fit
 * for both calls moved all ten recorded kvs_mix digests.
 *
 * Every frame it hands out reads as zero, so no caller zeroes a fresh
 * frame. Handing out a run zeroes only its frames that HostMemory
 * records as written since they were last zeroed; a frame nobody wrote
 * stays an untouched page of the HostMemory mapping. Frees do no byte
 * work.
 *
 * The allocator additionally keeps the machine's memory-occupancy
 * book for demand paging: per-owner (per-VM) resident/swapped frame
 * counts and balloon targets, updated by the hv::Pager.
 */

#ifndef ELISA_MEM_FRAME_ALLOCATOR_HH
#define ELISA_MEM_FRAME_ALLOCATOR_HH

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "base/types.hh"
#include "mem/host_memory.hh"

namespace elisa::mem
{

/**
 * Bitmap allocator handing out host-physical frames.
 */
class FrameAllocator
{
  public:
    /** Manage every frame of @p memory. */
    explicit FrameAllocator(HostMemory &memory);

    /**
     * Allocate @p count physically contiguous, zeroed frames.
     * @return base HPA of the run, or std::nullopt when no run fits.
     */
    std::optional<Hpa> alloc(std::uint64_t count = 1);

    /**
     * Allocate @p count contiguous, zeroed frames whose base frame
     * index is a multiple of @p align_frames (e.g. 512 for a 2 MiB-
     * aligned base).
     * @return base HPA, or std::nullopt when no such run fits.
     */
    std::optional<Hpa> allocAligned(std::uint64_t count,
                                    std::uint64_t align_frames);

    /**
     * Free @p count frames starting at @p base (must exactly match a
     * previous allocation's frames; panics on double free).
     */
    void free(Hpa base, std::uint64_t count = 1);

    /** Frames currently allocated. */
    std::uint64_t allocated() const { return allocatedFrames; }

    /** Frames currently free. */
    std::uint64_t freeFrames() const
    {
        return totalFrames - allocatedFrames;
    }

    /** Total managed frames. */
    std::uint64_t total() const { return totalFrames; }

    /** True if the frame containing @p hpa is allocated. */
    bool isAllocated(Hpa hpa) const;

    // ---- per-owner occupancy book (demand paging) -------------------

    /** Occupancy of one owner (a VM) under demand paging. */
    struct OwnerUsage
    {
        /** Frames of the owner's contiguous RAM reservation. */
        std::uint64_t reservedFrames = 0;

        /** Pager-managed frames currently resident in RAM. */
        std::uint64_t residentFrames = 0;

        /** Pager-managed frames swapped out to the backing store. */
        std::uint64_t swappedFrames = 0;

        /** Balloon target: max resident frames (0 = unconstrained). */
        std::uint64_t balloonTargetFrames = 0;
    };

    /**
     * Register owner @p owner (a VM id) with its RAM reservation size.
     * Idempotent; re-registering updates the reservation.
     */
    void noteOwner(std::uint32_t owner, std::uint64_t reserved_frames);

    /** Forget owner @p owner (VM destroyed). */
    void dropOwner(std::uint32_t owner);

    /** Adjust the resident-frame count of @p owner. */
    void addResident(std::uint32_t owner, std::int64_t delta);

    /** Adjust the swapped-frame count of @p owner. */
    void addSwapped(std::uint32_t owner, std::int64_t delta);

    /** Set the balloon target of @p owner (0 = unconstrained). */
    void setBalloonTarget(std::uint32_t owner, std::uint64_t frames);

    /**
     * Occupancy of @p owner, or nullptr when unknown. The entry keeps
     * its address until dropOwner(@p owner), so a caller may hold the
     * pointer for the owner's life.
     */
    const OwnerUsage *ownerUsage(std::uint32_t owner) const;

  private:
    /** Mark [first, first+count) allocated, zeroing written frames. */
    void handOut(std::uint64_t first, std::uint64_t count);

    /** Lowest base at or after @p from of @p count free frames. */
    std::optional<std::uint64_t> findRun(std::uint64_t from,
                                         std::uint64_t count) const;

    std::map<std::uint32_t, OwnerUsage> owners;

    HostMemory &mem;
    std::uint64_t totalFrames;
    std::uint64_t allocatedFrames = 0;
    /**
     * Frame index alloc() searches from: the end of its last run, or
     * the lowest run freed since, if that lies below it.
     */
    std::uint64_t searchHint = 0;
    /** One bit per frame: allocated. */
    std::vector<std::uint64_t> used;
};

} // namespace elisa::mem

#endif // ELISA_MEM_FRAME_ALLOCATOR_HH
