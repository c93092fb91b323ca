/**
 * @file
 * Extended Page Table entry encoding/decoding.
 *
 * Entries follow the Intel SDM layout for the bits we model:
 *   bit 0      read permission
 *   bit 1      write permission
 *   bit 2      execute permission
 *   bit 7      large page: this PDE maps a 2 MiB page directly
 *   bit 8      accessed (set by the walker)
 *   bit 9      dirty (set by the walker on write translations)
 *   bits 51:12 host-physical frame number of the next-level table or,
 *              at the leaf level, of the mapped page
 *
 * 4 KiB and 2 MiB pages are modelled; 1 GiB pages are not.
 *
 * Software state (ignored by hardware, bits 52+ are free per the SDM):
 *   bits 58:57 presence state — Normal / Swapped / Ballooned
 *   bits 61:59 saved leaf permissions of a non-present entry
 *
 * A Swapped or Ballooned leaf has all permission bits clear, so the
 * hardware walker faults on it exactly like an empty slot; the address
 * field of a Swapped leaf is reused to hold the backing-store slot id.
 */

#ifndef ELISA_EPT_EPT_ENTRY_HH
#define ELISA_EPT_EPT_ENTRY_HH

#include <cstdint>
#include <string>

#include "base/types.hh"

namespace elisa::ept
{

/** Access permissions of an EPT mapping (bitmask). */
enum class Perms : std::uint8_t
{
    None = 0,
    Read = 1 << 0,
    Write = 1 << 1,
    Exec = 1 << 2,
    RW = Read | Write,
    RX = Read | Exec,
    RWX = Read | Write | Exec,
};

constexpr Perms
operator|(Perms a, Perms b)
{
    return static_cast<Perms>(static_cast<std::uint8_t>(a) |
                              static_cast<std::uint8_t>(b));
}

constexpr Perms
operator&(Perms a, Perms b)
{
    return static_cast<Perms>(static_cast<std::uint8_t>(a) &
                              static_cast<std::uint8_t>(b));
}

/** True if @p have grants everything @p need requires. */
constexpr bool
permits(Perms have, Perms need)
{
    return (static_cast<std::uint8_t>(have) &
            static_cast<std::uint8_t>(need)) ==
           static_cast<std::uint8_t>(need);
}

/** Render permissions as "r-x" style string. */
std::string permsToString(Perms perms);

/**
 * Presence state of a leaf entry (software bits 58:57).
 *
 * Normal    — ordinary SDM semantics: present iff any perm bit is set.
 * Swapped   — page contents live in the backing store; the address
 *             field holds the swap slot id, perms are saved aside.
 * Ballooned — page has been reclaimed with no backing copy (demand
 *             zero): the next touch faults and gets a zero-filled
 *             frame.
 */
enum class PresState : std::uint8_t
{
    Normal = 0,
    Swapped = 1,
    Ballooned = 2,
};

/** Render a presence state. */
const char *presStateToString(PresState state);

/** Successful translation result (GPA -> HPA plus leaf permissions). */
struct Translation
{
    /** Host-physical address corresponding to the queried GPA. */
    Hpa hpa = 0;

    /** Leaf permissions of the mapping. */
    Perms perms = Perms::None;
};

/** Size of a 2 MiB large page. */
inline constexpr std::uint64_t largePageSize = 2 * 1024 * 1024;

/** Mask selecting the offset within a large page. */
inline constexpr std::uint64_t largePageMask = largePageSize - 1;

/**
 * One 64-bit EPT entry, as stored in a table page.
 */
class EptEntry
{
  public:
    EptEntry() = default;

    /** Wrap a raw 64-bit entry value. */
    explicit EptEntry(std::uint64_t raw) : value(raw) {}

    /**
     * Build an entry pointing at @p hpa with @p perms. Inline, so a
     * loop filling a leaf table compiles to plain stores.
     */
    static EptEntry
    make(Hpa hpa, Perms perms)
    {
        if (!isPageAligned(hpa)) [[unlikely]]
            badAddress(hpa, pageSize);
        return EptEntry(hpa | static_cast<std::uint64_t>(perms));
    }

    /** Build a 2 MiB large-page leaf entry (bit 7 set). */
    static EptEntry
    makeLarge(Hpa hpa, Perms perms)
    {
        if ((hpa & largePageMask) != 0) [[unlikely]]
            badAddress(hpa, largePageSize);
        return EptEntry(hpa | (1ull << 7) |
                        static_cast<std::uint64_t>(perms));
    }

    /**
     * Build a non-present Swapped leaf: the page content lives in
     * backing-store slot @p slot; @p saved_perms are restored when the
     * page is faulted back in. Keeps the large-page bit of the entry
     * shape it replaces out — swapping is 4 KiB-granular.
     */
    static EptEntry makeSwapped(std::uint64_t slot, Perms saved_perms);

    /** Build a non-present Ballooned (demand-zero) leaf. */
    static EptEntry makeBallooned(Perms saved_perms);

    /** Raw 64-bit representation. */
    std::uint64_t raw() const { return value; }

    /** An entry is present when any permission bit is set. */
    bool
    present() const
    {
        return (value & 0x7) != 0;
    }

    /** Permission bits of this entry. */
    Perms
    perms() const
    {
        return static_cast<Perms>(value & 0x7);
    }

    /** Host-physical address this entry points at (bits 51:12). */
    Hpa
    addr() const
    {
        return value & 0x000ffffffffff000ull;
    }

    /** Replace the permission bits, keeping the address. */
    void
    setPerms(Perms perms)
    {
        value = (value & ~std::uint64_t{0x7}) |
                static_cast<std::uint64_t>(perms);
    }

    /** True when bit 7 marks this entry as a 2 MiB leaf. */
    bool isLarge() const { return (value & (1ull << 7)) != 0; }

    /** Accessed flag (bit 8). */
    bool accessed() const { return (value & (1ull << 8)) != 0; }

    /** Dirty flag (bit 9). */
    bool dirty() const { return (value & (1ull << 9)) != 0; }

    /** Set/clear the accessed and dirty flags. */
    void
    setAccessed(bool on)
    {
        value = on ? value | (1ull << 8) : value & ~(1ull << 8);
    }

    void
    setDirty(bool on)
    {
        value = on ? value | (1ull << 9) : value & ~(1ull << 9);
    }

    /** Presence state (software bits 58:57). */
    PresState
    presState() const
    {
        return static_cast<PresState>((value >> presStateShift) & 0x3);
    }

    /** Saved permissions of a Swapped/Ballooned leaf (bits 61:59). */
    Perms
    savedPerms() const
    {
        return static_cast<Perms>((value >> savedPermsShift) & 0x7);
    }

    /** Backing-store slot of a Swapped leaf (stored in the address). */
    std::uint64_t swapSlot() const { return addr() >> pageShift; }

  private:
    /** Panic: @p hpa is not aligned to @p align for an entry. */
    [[noreturn]] static void badAddress(Hpa hpa, std::uint64_t align);

    static constexpr unsigned presStateShift = 57;
    static constexpr unsigned savedPermsShift = 59;

    std::uint64_t value = 0;
};

/** Number of levels in the EPT hierarchy (PML4 .. PT). */
inline constexpr unsigned eptLevels = 4;

/** Entries per table page (4096 / 8). */
inline constexpr unsigned eptEntriesPerTable = 512;

/**
 * Index into the table at @p level for @p gpa.
 * Level 3 = PML4 (bits 47:39) ... level 0 = PT (bits 20:12).
 */
constexpr unsigned
eptIndex(Gpa gpa, unsigned level)
{
    return static_cast<unsigned>((gpa >> (pageShift + 9 * level)) & 0x1ff);
}

/** Maximum guest-physical address covered by 4 levels (48 bits). */
inline constexpr Gpa maxGpa = (Gpa{1} << 48) - 1;

} // namespace elisa::ept

#endif // ELISA_EPT_EPT_ENTRY_HH
