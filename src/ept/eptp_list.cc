#include "ept/eptp_list.hh"

#include "base/logging.hh"

namespace elisa::ept
{

EptpList::EptpList(mem::HostMemory &memory, mem::FrameAllocator &allocator)
    : mem(memory), alloc(allocator)
{
    auto frame = alloc.alloc();
    fatal_if(!frame, "out of physical memory allocating EPTP list");
    page = *frame;
    // Fault the host page in with a write, as Ept does for a new table:
    // set() reads a slot before writing it, and a first read would map
    // the host's shared zero page and fault again on the write.
    mem.write64(page, 0);
}

EptpList::~EptpList()
{
    alloc.free(page);
}

void
EptpList::set(EptpIndex index, std::uint64_t eptp)
{
    panic_if(index >= eptpListSize, "EPTP list index %u out of range",
             index);
    panic_if(eptp == 0, "installing invalid (zero) EPTP");
    if (mem.read64(page + index * 8ull) == 0)
        ++valid;
    mem.write64(page + index * 8ull, eptp);
}

void
EptpList::clear(EptpIndex index)
{
    panic_if(index >= eptpListSize, "EPTP list index %u out of range",
             index);
    if (mem.read64(page + index * 8ull) != 0)
        --valid;
    mem.write64(page + index * 8ull, 0);
}

std::optional<EptpIndex>
EptpList::findFree() const
{
    for (unsigned i = 0; i < eptpListSize; ++i) {
        if (mem.read64(page + i * 8ull) == 0)
            return static_cast<EptpIndex>(i);
    }
    return std::nullopt;
}

std::optional<EptpIndex>
EptpList::find(std::uint64_t eptp) const
{
    for (unsigned i = 0; i < eptpListSize; ++i) {
        if (mem.read64(page + i * 8ull) == eptp)
            return static_cast<EptpIndex>(i);
    }
    return std::nullopt;
}

} // namespace elisa::ept
