/**
 * @file
 * EPTP-tagged translation cache.
 *
 * Models the guest-physical mappings cached by the hardware TLB. Entries
 * are tagged with the EPTP they were filled under, mirroring VPID/EPTRTA
 * tagging on real CPUs: a VMFUNC EPTP switch therefore does NOT flush
 * the cache (that is part of why it is cheap), while remap/protect
 * operations require an explicit INVEPT-equivalent flush from the
 * hypervisor.
 *
 * INVEPT invalidates by generation, not by scan. Each EPTP filled since
 * its last flush owns a *context*: a small id with a 64-bit generation.
 * An entry records its context's id and generation at fill time and is
 * live only while the two still match. A single-context flush bumps one
 * generation and retires the id for reuse; a global flush does that for
 * every live context. Neither touches an entry, so a flush costs time
 * proportional to the live contexts (typically a handful per vCPU), not
 * to the 1024 entries; a lookup pays one extra compare against the
 * small generation array. Generations only grow, so a retired id's
 * entries can never come back to life under a later owner of the id.
 *
 * A Tlb takes its entry array from one that died, when one is spare,
 * instead of allocating and zeroing 40 KiB per vCPU. The array comes
 * with the last generation its owner handed out and the number of
 * context ids it made. The new Tlb's generations start above that one,
 * for every id the stale entries name, so none can match.
 *
 * The cache exposes an *epoch* counter to the CPU's L0 micro-cache
 * (cpu::GuestView): any event after which a privately remembered
 * translation might no longer match what a Tlb lookup would return —
 * a fill (possible eviction), a flush (INVEPT), or an EPTP context
 * switch — bumps the epoch, so L0 entries stamped with an older epoch
 * can never be served stale.
 */

#ifndef ELISA_EPT_TLB_HH
#define ELISA_EPT_TLB_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "base/types.hh"
#include "ept/ept_entry.hh"
#include "sim/stats.hh"

namespace elisa::ept
{

/**
 * Direct-mapped, EPTP-tagged translation cache.
 */
class Tlb
{
  public:
    /** @param entry_count number of entries; must be a power of two. */
    explicit Tlb(std::size_t entry_count = 1024);

    /** Hands the entry array to the next Tlb of its size. */
    ~Tlb();

    Tlb(const Tlb &) = delete;
    Tlb &operator=(const Tlb &) = delete;

    /**
     * Mirror hit/miss/flush counts into @p set as the interned
     * counters "tlb_hit" / "tlb_miss" / "tlb_flush" (the per-vCPU
     * StatSet calls this once at construction).
     */
    void attachStats(sim::StatSet &set);

    /**
     * Look up the translation of the page containing @p gpa under
     * @p eptp. Counts a hit or miss.
     */
    std::optional<Translation>
    lookup(std::uint64_t eptp, Gpa gpa)
    {
        const Entry &e = entries[indexOf(eptp, gpa)];
        if (matches(e, eptp, gpa)) {
            ++hitCount;
            if (stats)
                stats->inc(hitId);
            return Translation{e.hpaPage | (gpa & pageMask), e.perms};
        }
        ++missCount;
        if (stats)
            stats->inc(missId);
        return std::nullopt;
    }

    /**
     * Install a translation (called after a successful walk).
     * Bumps the epoch: the fill may have evicted another entry.
     * @param dirty_known true when the walk already set the leaf's
     *        dirty flag (a write access), so later writes through
     *        this entry need no A/D update walk.
     */
    void fill(std::uint64_t eptp, Gpa gpa, const Translation &xlat,
              bool dirty_known = false);

    /** Did the cached entry's fill already propagate the dirty flag? */
    bool dirtyKnown(std::uint64_t eptp, Gpa gpa) const;

    /** Record that the dirty flag is now set in the leaf. */
    void setDirtyKnown(std::uint64_t eptp, Gpa gpa);

    /** Drop every entry (INVEPT global equivalent). */
    void flushAll();

    /** Drop entries filled under @p eptp (INVEPT single-context). */
    void flushEptp(std::uint64_t eptp);

    /** Statistics. */
    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }
    std::uint64_t flushes() const { return flushCount; }

    /**
     * Invalidation epoch for L0 micro-caches. A remembered
     * translation is only as fresh as the epoch it was stamped with:
     * serve it again iff the epoch still matches.
     */
    std::uint64_t epoch() const { return epochCount; }

    /**
     * Bump the epoch without touching entries. Called by the vCPU on
     * VMFUNC / EPTP activation: the Tlb itself survives the switch
     * (EPTP-tagged), but L0 caches are conservatively invalidated.
     */
    void bumpEpoch() { ++epochCount; }

    /** Number of currently valid entries (for tests). */
    std::size_t validCount() const;

    /** Number of EPTPs filled since their last flush (for tests). */
    std::size_t liveContexts() const { return live.size(); }

  private:
    struct Entry
    {
        std::uint64_t eptp = 0;
        Gpa gpaPage = 0;
        Hpa hpaPage = 0;
        /**
         * Generation of context @c ctx at fill time; below every
         * generation of this Tlb if this Tlb never filled the entry.
         */
        std::uint64_t gen = 0;
        std::uint32_t ctx = 0;
        Perms perms = Perms::None;
        bool dirtyKnown = false;
    };
    static_assert(sizeof(Entry) <= 40, "keep a TLB entry within 40 bytes");

    /** An EPTP filled since its last flush, and its context id. */
    struct Context
    {
        std::uint64_t eptp = 0;
        std::uint32_t id = 0;
    };

    /** Entry arrays of dead Tlbs (tlb.cc). */
    struct SpareList;

    /** This thread's spare entry arrays. */
    static SpareList &spareList();

    std::size_t
    indexOf(std::uint64_t eptp, Gpa gpa) const
    {
        // Mix the page number with the EPTP so contexts do not collide
        // on identical guest addresses (common: all contexts map the
        // GPA 0 region).
        const std::uint64_t key =
            (gpa >> pageShift) ^ (eptp >> pageShift) * 0x9e37ull;
        return static_cast<std::size_t>(key) & indexMask;
    }

    /** Is @p e a live entry for the page of @p gpa under @p eptp? */
    bool
    matches(const Entry &e, std::uint64_t eptp, Gpa gpa) const
    {
        return e.eptp == eptp && e.gpaPage == pageAlignDown(gpa) &&
               e.gen == ctxGen[e.ctx];
    }

    /** The context id of @p eptp, opening a context if it has none. */
    std::uint32_t contextOf(std::uint64_t eptp);

    /** Kill every entry of context @p id and free the id for reuse. */
    void retire(std::uint32_t id);

    std::vector<Entry> entries;
    std::size_t indexMask;
    /**
     * Current generation per context id; only grows, and is above
     * every generation the entry array held when this Tlb took it.
     */
    std::vector<std::uint64_t> ctxGen;
    /**
     * The last generation handed out, by this Tlb or by the previous
     * owner of its entry array; every new generation is above it.
     */
    std::uint64_t lastGen = 0;
    /** The live contexts, at most one per EPTP. */
    std::vector<Context> live;
    /** Retired ids, reused before a new id is made. */
    std::vector<std::uint32_t> freeIds;

    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
    std::uint64_t flushCount = 0;
    std::uint64_t epochCount = 0;

    /** Mirrored interned counters (null when not attached). */
    sim::StatSet *stats = nullptr;
    sim::StatId hitId = 0;
    sim::StatId missId = 0;
    sim::StatId flushId = 0;
};

} // namespace elisa::ept

#endif // ELISA_EPT_TLB_HH
