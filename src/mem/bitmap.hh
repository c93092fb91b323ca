/**
 * @file
 * Word-at-a-time search and update of a bitmap held in 64-bit words:
 * bit i lives in word i / 64 at position i % 64. HostMemory's
 * written-frame summary and FrameAllocator's used-frame map are such
 * bitmaps.
 */

#ifndef ELISA_MEM_BITMAP_HH
#define ELISA_MEM_BITMAP_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace elisa::mem
{

/**
 * First bit in [from, end) of @p words that equals @p set, or @p end
 * when there is none.
 */
inline std::uint64_t
findBit(const std::vector<std::uint64_t> &words, std::uint64_t from,
        std::uint64_t end, bool set)
{
    while (from < end) {
        std::uint64_t word = words[from / 64];
        if (!set)
            word = ~word;
        // Drop the bits below @p from; the zeros shifted in at the top
        // belong to the next word, which the next round reads.
        word >>= from % 64;
        if (word != 0)
            return std::min<std::uint64_t>(end,
                                           from + std::countr_zero(word));
        from = (from / 64 + 1) * 64;
    }
    return end;
}

/** Set bits [first, end) of @p words to @p set. */
inline void
fillBits(std::vector<std::uint64_t> &words, std::uint64_t first,
         std::uint64_t end, bool set)
{
    while (first < end) {
        const std::uint64_t shift = first % 64;
        const std::uint64_t n = std::min<std::uint64_t>(64 - shift,
                                                        end - first);
        const std::uint64_t mask = (~std::uint64_t{0} >> (64 - n)) << shift;
        if (set)
            words[first / 64] |= mask;
        else
            words[first / 64] &= ~mask;
        first += n;
    }
}

} // namespace elisa::mem

#endif // ELISA_MEM_BITMAP_HH
