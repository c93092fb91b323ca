/**
 * @file
 * Test helper for HostMemory's written-line bookkeeping.
 */

#ifndef ELISA_TESTS_FRAME_CHECKS_HH
#define ELISA_TESTS_FRAME_CHECKS_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "base/types.hh"
#include "mem/host_memory.hh"

namespace elisa::test
{

/**
 * Audit of the whole machine: the 64-byte lines of @p memory (as
 * HPA / lineBytes) that hold a non-zero byte although zeroWritten()
 * would skip them, because their line bit or their frame's summary bit
 * is clear. Empty unless a write path marked fewer lines than it wrote
 * or zeroWritten() left a line dirty, either of which would let the
 * allocator hand a dead owner's bytes to the next one.
 */
inline std::vector<std::uint64_t>
unwrittenLinesWithBytes(const mem::HostMemory &memory)
{
    constexpr std::uint64_t line = mem::HostMemory::lineBytes;
    static const std::uint8_t zeros[pageSize] = {};
    std::vector<std::uint64_t> bad;
    for (std::uint64_t frame = 0; frame < memory.frameCount(); ++frame) {
        const Hpa hpa = frame * pageSize;
        const std::uint64_t mask =
            memory.written(hpa) ? memory.writtenLines(hpa) : 0;
        const std::uint8_t *bytes = memory.raw(hpa, pageSize);
        if (mask == ~std::uint64_t{0} ||
            (mask == 0 && std::memcmp(bytes, zeros, pageSize) == 0))
            continue;
        for (std::uint64_t i = 0; i < pageSize / line; ++i) {
            if (!((mask >> i) & 1) &&
                std::memcmp(bytes + i * line, zeros, line) != 0)
                bad.push_back(hpa / line + i);
        }
    }
    return bad;
}

} // namespace elisa::test

#endif // ELISA_TESTS_FRAME_CHECKS_HH
