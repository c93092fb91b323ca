#include "mem/host_memory.hh"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <utility>

#include <sys/mman.h>

#include "mem/bitmap.hh"

namespace elisa::mem
{

namespace
{

/** Map @p bytes of zeroed host memory that is backed only once written. */
void *
mapLazily(std::uint64_t bytes, const char *what)
{
    // MAP_NORESERVE: a machine of several GiB reserves no swap for the
    // pages it never writes.
    void *mapping = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    fatal_if(mapping == MAP_FAILED, "cannot map %llu bytes of %s: %s",
             (unsigned long long)bytes, what, std::strerror(errno));
    return mapping;
}

} // anonymous namespace

HostMemory::HostMemory(std::uint64_t bytes)
    : length(bytes), writtenBits((bytes / pageSize + 63) / 64, 0)
{
    fatal_if(bytes == 0 || !isPageAligned(bytes),
             "physical memory size must be a non-zero multiple of 4 KiB");
    data = static_cast<std::uint8_t *>(
        mapLazily(bytes, "physical memory"));
    lineMasks = static_cast<std::uint64_t *>(
        mapLazily(frameCount() * sizeof(std::uint64_t),
                  "written-line masks"));
}

HostMemory::~HostMemory()
{
    munmap(lineMasks, frameCount() * sizeof(std::uint64_t));
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

std::uint64_t
HostMemory::writtenLines(Hpa hpa) const
{
    panic_if(!contains(hpa), "HPA %llx outside physical memory",
             (unsigned long long)hpa);
    return lineMasks[hpa >> pageShift];
}

void
HostMemory::markSpan(Hpa hpa, std::uint64_t len)
{
    const Hpa end = hpa + len;
    for (Hpa at = hpa; at < end;) {
        const Hpa frame = pageAlignDown(at);
        const Hpa next = frame + pageSize;
        lineMasks[at >> pageShift] |=
            lineSpan(at - frame, std::min(end, next) - frame);
        at = next;
    }
    fillBits(writtenBits, hpa >> pageShift, ((end - 1) >> pageShift) + 1,
             true);
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
    // The dirty run gathered so far, [run, run_end). A run that reaches
    // the end of one frame and goes on at the start of the next is
    // cleared by one memset.
    Hpa run = 0;
    Hpa run_end = 0;
    for (std::uint64_t frame = findBit(writtenBits, hpa >> pageShift, end,
                                       true);
         frame < end; frame = findBit(writtenBits, frame + 1, end, true)) {
        writtenBits[frame / 64] &= ~(std::uint64_t{1} << (frame % 64));
        std::uint64_t mask = std::exchange(lineMasks[frame], 0);
        while (mask != 0) {
            const unsigned first = std::countr_zero(mask);
            const unsigned lines = std::countr_one(mask >> first);
            const Hpa start = frame * pageSize + first * lineBytes;
            if (start != run_end) {
                if (run != run_end)
                    std::memset(data + run, 0, run_end - run);
                run = start;
            }
            run_end = start + lines * lineBytes;
            // Adding the lowest set bit carries through its run of
            // ones and clears it; a run up to bit 63 carries out to 0.
            mask &= mask + (std::uint64_t{1} << first);
        }
    }
    if (run != run_end)
        std::memset(data + run, 0, run_end - run);
}

} // namespace elisa::mem
