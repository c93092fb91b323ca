/**
 * @file
 * Test helper for HostMemory's written-frame bitmap.
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
 * Frames of @p memory whose written bit is clear yet which hold a
 * non-zero byte. Empty unless a write path skipped the bit, which would
 * let the allocator hand a dead owner's bytes to the next one.
 */
inline std::vector<std::uint64_t>
unwrittenFramesWithBytes(const mem::HostMemory &memory)
{
    static const std::uint8_t zeros[pageSize] = {};
    std::vector<std::uint64_t> frames;
    for (std::uint64_t frame = 0; frame < memory.frameCount(); ++frame) {
        const Hpa hpa = frame * pageSize;
        if (!memory.written(hpa) &&
            std::memcmp(memory.raw(hpa, pageSize), zeros, pageSize) != 0)
            frames.push_back(frame);
    }
    return frames;
}

} // namespace elisa::test

#endif // ELISA_TESTS_FRAME_CHECKS_HH
