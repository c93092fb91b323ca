#include "mem/host_memory.hh"

#include <algorithm>
#include <bit>
#include <cerrno>

#include <sys/mman.h>

namespace elisa::mem
{

HostMemory::HostMemory(std::uint64_t bytes)
    : length(bytes), writtenBits((bytes / pageSize + 63) / 64, 0)
{
    fatal_if(bytes == 0 || !isPageAligned(bytes),
             "physical memory size must be a non-zero multiple of 4 KiB");
    // MAP_NORESERVE: a machine of several GiB reserves no swap for the
    // pages it never writes.
    void *mapping = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    fatal_if(mapping == MAP_FAILED,
             "cannot map %llu bytes of physical memory: %s",
             (unsigned long long)bytes, std::strerror(errno));
    data = static_cast<std::uint8_t *>(mapping);
}

HostMemory::~HostMemory()
{
    munmap(data, length);
}

bool
HostMemory::written(Hpa hpa) const
{
    panic_if(!contains(hpa), "HPA %llx outside physical memory",
             (unsigned long long)hpa);
    const std::uint64_t frame = hpa >> pageShift;
    return (writtenBits[frame / 64] >> (frame % 64)) & 1;
}

void
HostMemory::markWritten(std::uint64_t first, std::uint64_t last)
{
    for (std::uint64_t frame = first; frame <= last; ++frame)
        writtenBits[frame / 64] |= std::uint64_t{1} << (frame % 64);
}

std::uint64_t
HostMemory::findFrame(std::uint64_t from, std::uint64_t end,
                      bool set) const
{
    while (from < end) {
        std::uint64_t word = writtenBits[from / 64];
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

void
HostMemory::zeroWritten(Hpa hpa, std::uint64_t len)
{
    panic_if(!contains(hpa, len) || !isPageAligned(hpa) ||
                 !isPageAligned(len),
             "zeroWritten of [%llx, +%llx) is not whole frames of "
             "physical memory",
             (unsigned long long)hpa, (unsigned long long)len);
    const std::uint64_t end = (hpa + len) >> pageShift;
    std::uint64_t frame = findFrame(hpa >> pageShift, end, true);
    while (frame < end) {
        const std::uint64_t stop = findFrame(frame, end, false);
        std::memset(data + frame * pageSize, 0, (stop - frame) * pageSize);
        for (; frame < stop; ++frame)
            writtenBits[frame / 64] &= ~(std::uint64_t{1} << (frame % 64));
        frame = findFrame(stop, end, true);
    }
}

} // namespace elisa::mem
