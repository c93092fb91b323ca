#include "mem/host_memory.hh"

#include <cerrno>

#include <sys/mman.h>

namespace elisa::mem
{

HostMemory::HostMemory(std::uint64_t bytes) : length(bytes)
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

} // namespace elisa::mem
