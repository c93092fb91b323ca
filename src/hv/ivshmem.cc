#include "hv/ivshmem.hh"

#include "base/logging.hh"
#include "hv/hypervisor.hh"

namespace elisa::hv
{

IvshmemRegion::IvshmemRegion(Hypervisor &hv, std::string name,
                             std::uint64_t size_bytes)
    : hyper(hv), regionName(std::move(name)),
      bytes(pageAlignUp(size_bytes))
{
    fatal_if(bytes == 0, "empty ivshmem region");
    auto base = hv.allocator().alloc(bytes / pageSize);
    fatal_if(!base, "out of physical memory for ivshmem region '%s'",
             regionName.c_str());
    hpaBase = *base;
}

IvshmemRegion::~IvshmemRegion()
{
    if (attachments != 0)
        warn("ivshmem region '%s' destroyed with %u live attachments",
             regionName.c_str(), attachments);
    hyper.allocator().free(hpaBase, bytes / pageSize);
}

bool
IvshmemRegion::attach(Vm &vm, Gpa gpa, ept::Perms perms)
{
    if (!vm.defaultEpt().mapRange(gpa, hpaBase, bytes, perms))
        return false;
    // Under demand paging the region's frames may be managed (a
    // scenario put them under manageRange); register this mapping so
    // its leaves stay in lock-step with the frame states.
    if (Pager *pager = hyper.pager())
        pager->addMirror(vm.defaultEpt(), gpa, hpaBase, bytes);
    ++attachments;
    hyper.stats().inc("ivshmem_attach");
    return true;
}

void
IvshmemRegion::detach(Vm &vm, Gpa gpa)
{
    if (Pager *pager = hyper.pager())
        pager->dropMirror(vm.defaultEpt().eptp(), gpa);
    const std::uint64_t removed = vm.defaultEpt().unmapRange(gpa, bytes);
    panic_if(removed != bytes / pageSize,
             "ivshmem detach did not match an attach");
    hyper.inveptAll(vm.defaultEpt().eptp());
    panic_if(attachments == 0, "detach without attach");
    --attachments;
}

} // namespace elisa::hv
