/**
 * @file
 * One Extended Page Table hierarchy (an "EPT context" in ELISA terms).
 *
 * Table pages are allocated from the machine's FrameAllocator and live
 * inside simulated physical memory, so walks read real entries via
 * HostMemory. An Ept owns its table pages (kept in a list and freed on
 * destruction) but never the data frames it maps. Range operations
 * walk once per leaf table (one 2 MiB chunk of the range), not once
 * per page.
 */

#ifndef ELISA_EPT_EPT_HH
#define ELISA_EPT_EPT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "ept/ept_entry.hh"
#include "mem/frame_allocator.hh"
#include "mem/host_memory.hh"

namespace elisa::ept
{

/** Kind of access being attempted (for violation reporting). */
enum class Access : std::uint8_t { Read, Write, Exec };

/** Render an access kind. */
const char *accessToString(Access access);

/**
 * Description of a failed translation: the simulated equivalent of the
 * EPT-violation exit qualification.
 */
struct EptViolation
{
    /** Faulting guest-physical address. */
    Gpa gpa = 0;

    /** The attempted access. */
    Access access = Access::Read;

    /** Permissions present at the leaf (None if not mapped). */
    Perms present = Perms::None;

    /** True if the walk ended on a non-present entry. */
    bool notMapped = false;

    /** Human-readable description. */
    std::string describe() const;
};

/**
 * The hardware page walker: translate @p gpa under the hierarchy rooted
 * at @p eptp_value, reading table entries straight out of physical
 * memory. Used by the CPU's access path (cpu::GuestView), which only
 * knows the active EPTP value, not the owning Ept object. Handles both
 * 4 KiB leaves and 2 MiB large-page leaves.
 *
 * @return the translation, or nullopt when the walk hits a non-present
 *         entry.
 */
std::optional<Translation>
hardwareWalk(const mem::HostMemory &memory, std::uint64_t eptp_value,
             Gpa gpa);

/**
 * Walk as the hardware would for a committed access: additionally set
 * the leaf's accessed flag, and its dirty flag when @p is_write.
 * (We model A/D at the leaf only, not at intermediate levels.)
 */
std::optional<Translation>
hardwareWalkAd(mem::HostMemory &memory, std::uint64_t eptp_value,
               Gpa gpa, bool is_write);

/**
 * A 4-level EPT hierarchy.
 */
class Ept
{
  public:
    /**
     * Create an empty hierarchy: allocates the root (PML4) page.
     * @param memory the machine's physical memory.
     * @param allocator frame allocator for table pages.
     */
    Ept(mem::HostMemory &memory, mem::FrameAllocator &allocator);

    /** Frees every table page of the hierarchy. */
    ~Ept();

    Ept(const Ept &) = delete;
    Ept &operator=(const Ept &) = delete;

    /**
     * The EPT pointer for this hierarchy, SDM-style: root table HPA
     * plus low configuration bits (WB memory type, 4-level walk).
     */
    std::uint64_t eptp() const;

    /** Recover the root-table HPA from an EPTP value. */
    static Hpa rootOfEptp(std::uint64_t eptp_value);

    /**
     * Map the 4 KiB page at @p gpa to @p hpa with @p perms.
     * @return false if @p gpa is already mapped (mapping unchanged).
     */
    bool map(Gpa gpa, Hpa hpa, Perms perms);

    /**
     * Map a 2 MiB large page at @p gpa (both addresses 2 MiB aligned).
     * @return false if anything already occupies the slot.
     */
    bool mapLarge(Gpa gpa, Hpa hpa, Perms perms);

    /**
     * Map a range using 2 MiB pages wherever both addresses are
     * large-aligned and at least 2 MiB remain, 4 KiB pages elsewhere.
     * A 2 MiB chunk whose directory slot still holds a page table
     * (emptied by unmapping) gets 4 KiB leaves in that table.
     * Same all-or-nothing contract as mapRange().
     * @return false if any covered page is already mapped.
     */
    bool mapRangeAuto(Gpa gpa, Hpa hpa, std::uint64_t len, Perms perms);

    /**
     * Map a narrowed window of a larger object: the @p len bytes at
     * byte @p window_offset into the object based at @p obj_hpa appear
     * at @p gpa. Validates that the window is page-aligned and lies
     * entirely inside the @p obj_bytes-byte object — a delegated grant
     * must never map frames beyond what its parent could reach — then
     * maps with mapRangeAuto() (2 MiB pages wherever alignment still
     * allows).
     * @return false on a malformed window or a mapping collision.
     */
    bool mapWindow(Gpa gpa, Hpa obj_hpa, std::uint64_t obj_bytes,
                   std::uint64_t window_offset, std::uint64_t len,
                   Perms perms);

    /**
     * Map a multi-page range (both addresses page aligned, @p len a
     * multiple of the page size). Panics mid-way mappings never occur:
     * the whole range is validated as unmapped first.
     * @return false if any page of the range was already mapped.
     */
    bool mapRange(Gpa gpa, Hpa hpa, std::uint64_t len, Perms perms);

    /**
     * Remove the mapping of the page at @p gpa.
     * @return false if it was not mapped.
     */
    bool unmap(Gpa gpa);

    /** Unmap every page of a range; returns pages actually unmapped. */
    std::uint64_t unmapRange(Gpa gpa, std::uint64_t len);

    /**
     * Change the permissions of an existing mapping.
     * @return false if @p gpa is not mapped.
     */
    bool protect(Gpa gpa, Perms perms);

    /**
     * The slot of one 4 KiB leaf entry, resolved by pageLeaf(). Table
     * pages are freed only when the Ept is destroyed, so the slot holds
     * its GPA's leaf for the Ept's whole life, across unmap and remap.
     * The paging operations below act on such slots; the pager's fault
     * path calls the hot ones, so they are defined here, where they
     * inline into it.
     */
    struct Leaf
    {
        Hpa slot; ///< HPA of the entry
    };

    /**
     * The 4 KiB leaf slot of @p gpa, whatever the entry holds.
     * @return nullopt when no page table covers @p gpa (a table is
     *         missing, or a 2 MiB leaf maps it).
     */
    std::optional<Leaf> pageLeaf(Gpa gpa) const;

    /**
     * Demote the present leaf in @p leaf to a non-present Swapped leaf
     * recording backing-store slot @p slot_id; the current leaf
     * permissions are saved aside for markPresent(). Large-page leaves
     * are never swapped (the pager maps managed ranges 4 KiB-granular).
     * The caller must INVEPT afterwards.
     * @return false if the leaf is not present.
     */
    bool
    markSwapped(Leaf leaf, std::uint64_t slot_id)
    {
        const EptEntry entry(mem.read64(leaf.slot));
        if (!entry.present())
            return false;
        mem.write64(leaf.slot,
                    EptEntry::makeSwapped(slot_id, entry.perms()).raw());
        ++gen;
        return true;
    }

    /**
     * Demote the present leaf in @p leaf to a Ballooned (demand-zero)
     * leaf. Same contract as markSwapped().
     */
    bool markBallooned(Leaf leaf);

    /**
     * Promote the Swapped/Ballooned leaf in @p leaf back to a present
     * mapping of @p hpa, restoring the saved permissions.
     * @return false if the leaf is not in a non-present paged state.
     */
    bool
    markPresent(Leaf leaf, Hpa hpa)
    {
        panic_if(!isPageAligned(hpa), "markPresent of unaligned HPA %llx",
                 (unsigned long long)hpa);
        const EptEntry entry(mem.read64(leaf.slot));
        if (entry.presState() == PresState::Normal)
            return false;
        // The fresh mapping starts with clear A/D flags; the faulting
        // access re-walks and sets them like any first touch.
        mem.write64(leaf.slot,
                    EptEntry::make(hpa, entry.savedPerms()).raw());
        return true;
    }

    /**
     * Read and clear the accessed flag of the present leaf in @p leaf
     * (the clock reclaimer's second-chance test).
     * @return the previous accessed flag; false when not present.
     */
    bool
    accessedAndClear(Leaf leaf)
    {
        EptEntry entry(mem.read64(leaf.slot));
        if (!entry.present() || !entry.accessed())
            return false;
        entry.setAccessed(false);
        mem.write64(leaf.slot, entry.raw());
        return true;
    }

    /** Presence state of the leaf at @p gpa (Normal when unmapped). */
    PresState entryState(Gpa gpa) const;

    /** Raw leaf entry at @p gpa, if the walk reaches one. */
    std::optional<EptEntry> leafEntry(Gpa gpa) const;

    /**
     * Walk the hierarchy for @p gpa (no permission check).
     * @return the translation, or the violation that a @p access
     *         attempt would raise.
     */
    std::optional<Translation> translate(Gpa gpa) const;

    /**
     * Full translate-and-check, as the hardware would perform for an
     * @p access at @p gpa. On failure the violation is stored in
     * @p violation (if non-null).
     */
    std::optional<Translation>
    translateFor(Gpa gpa, Access access, EptViolation *violation) const;

    /**
     * Scan @p len bytes from @p gpa for leaves with the dirty flag
     * set; returns (page base, page size) pairs. When @p clear is
     * true the dirty flags are reset (the caller must INVEPT).
     */
    std::vector<std::pair<Gpa, std::uint64_t>>
    dirtyRanges(Gpa gpa, std::uint64_t len, bool clear);

    /**
     * Number of leaf *entries* currently mapped (a 2 MiB page counts
     * as one entry; see mappedBytes() for coverage).
     */
    std::uint64_t mappedPages() const { return mappedCount; }

    /** Bytes of guest-physical space covered by leaf mappings. */
    std::uint64_t mappedBytes() const { return coveredBytes; }

    /** Number of table pages currently allocated (incl. the root). */
    std::uint64_t tablePages() const { return tables.size(); }

    /** Generation counter, bumped on every unmap/protect (TLB epochs). */
    std::uint64_t generation() const { return gen; }

  private:
    /** Outcome of an internal walk: the leaf slot and its level. */
    struct LeafSlot
    {
        Hpa slot;       ///< HPA of the entry slot
        unsigned level; ///< 0 = PTE, 1 = large-page PDE
    };

    /**
     * Walk to the leaf entry slot for @p gpa. Stops at level 1 when a
     * large-page leaf is installed there.
     * @param allocate create missing intermediate tables when true.
     * @param stop_level walk no deeper than this level (1 when
     *        installing a large page, 0 otherwise).
     * @return the slot, or nullopt when a level is missing and
     *         @p allocate is false (or allocation failed).
     */
    std::optional<LeafSlot> walkToLeaf(Gpa gpa, bool allocate,
                                       unsigned stop_level = 0);

    /** Const walk (never allocates). */
    std::optional<LeafSlot> walkToLeaf(Gpa gpa) const;

    /**
     * The level-1 (page-directory) slot covering @p gpa, or nullopt
     * when a table above it is missing. Never allocates.
     */
    std::optional<Hpa> directorySlot(Gpa gpa) const;

    /** Allocate a table page and add it to the list (nullopt if OOM). */
    std::optional<Hpa> newTable();

    /**
     * True when no page of [gpa, gpa+len) has a leaf entry of any kind
     * — including non-present Swapped/Ballooned leaves, which still own
     * their GPA slot and must not be silently overwritten. Reads one
     * leaf table per 2 MiB chunk.
     */
    bool rangeFree(Gpa gpa, std::uint64_t len) const;

    /**
     * Map [gpa, gpa+len), which lies in one 2 MiB chunk and holds no
     * leaf, to @p hpa with 4 KiB leaves: one walk (allocating tables as
     * needed), then the leaf entries in place.
     */
    void mapChunk(Gpa gpa, Hpa hpa, std::uint64_t len, Perms perms);

    /** Panic on a malformed range mapping request. */
    void checkRangeTarget(Gpa gpa, Hpa hpa, std::uint64_t len,
                          Perms perms) const;

    mem::HostMemory &mem;
    mem::FrameAllocator &alloc;
    Hpa root;
    /** Every table page of the hierarchy, the root first. */
    std::vector<Hpa> tables;
    std::uint64_t mappedCount = 0;
    std::uint64_t coveredBytes = 0;
    std::uint64_t gen = 0;
};

} // namespace elisa::ept

#endif // ELISA_EPT_EPT_HH
