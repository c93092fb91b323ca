#include "elisa/sub_context.hh"

#include "base/logging.hh"

namespace elisa::core
{

Export::Export(hv::Hypervisor &hv, ExportId id, std::string name,
               VmId manager_vm, Hpa object_hpa, std::uint64_t object_bytes,
               ept::Perms perms, SharedFnTable fns)
    : hyper(hv), exportId(id), exportName(std::move(name)),
      manager(manager_vm), objHpa(object_hpa), objBytes(object_bytes),
      objPerms(perms), fnTable(std::move(fns))
{
    fatal_if(!isPageAligned(objBytes) || objBytes == 0,
             "export '%s': object size must be a page multiple",
             exportName.c_str());
    fatal_if(fnTable.empty(), "export '%s': empty function table",
             exportName.c_str());

    auto code = hv.allocator().alloc();
    fatal_if(!code, "out of memory for gate code page");
    gateCode = *code;
    // Stamp a recognizable trampoline signature so tests can verify
    // which page the fetch check hits.
    const std::uint64_t signature = 0x454c49534147ull; // "GATESILE"
    hv.memory().write64(gateCode, signature);
}

Export::~Export()
{
    panic_if(attachRefs != 0,
             "export '%s' destroyed with %u live attachments",
             exportName.c_str(), attachRefs);
    hyper.allocator().free(gateCode);
}

void
Export::dropAttachment()
{
    panic_if(attachRefs == 0, "attachment underflow on export '%s'",
             exportName.c_str());
    --attachRefs;
}

Attachment::Attachment(hv::Hypervisor &hv, AttachmentId id, Export &exp_,
                       hv::Vm &guest_vm, unsigned vcpu_index,
                       unsigned slot, ept::Perms granted_perms,
                       std::uint64_t window_offset,
                       std::uint64_t window_bytes)
    : hyper(hv), attachId(id), exp(exp_), guestVmId(guest_vm.id()),
      vcpu(vcpu_index), granted(granted_perms)
{
    panic_if(!ept::permits(exp.objectPerms(), granted),
             "granted permissions exceed the export's");
    if (window_bytes == 0)
        window_bytes = exp.objectBytes() - window_offset;
    panic_if(!isPageAligned(window_offset) ||
                 !isPageAligned(window_bytes) || window_bytes == 0 ||
                 window_offset + window_bytes > exp.objectBytes(),
             "attachment window outside export '%s'",
             exp.name().c_str());
    auto &allocator = hv.allocator();

    auto stack = allocator.alloc(stackBytes / pageSize);
    fatal_if(!stack, "out of memory for gate stack");
    stackHpa = *stack;

    auto exch = allocator.alloc(exchBytes / pageSize);
    fatal_if(!exch, "out of memory for exchange buffer");
    exchHpa = *exch;

    // Gate context: trampoline (X), stack (RW), exchange (RW).
    gateContext = std::make_unique<ept::Ept>(hv.memory(), allocator);
    bool ok = gateContext->map(gateCodeGpa, exp.gateCodeHpa(),
                               ept::Perms::Exec);
    ok = ok && gateContext->mapRange(gateStackGpa, stackHpa, stackBytes,
                                     ept::Perms::RW);
    ok = ok && gateContext->mapRange(exchangeGpa, exchHpa, exchBytes,
                                     ept::Perms::RW);
    panic_if(!ok, "gate context construction collided");

    // Sub context: everything the gate has, plus the object window.
    subContext = std::make_unique<ept::Ept>(hv.memory(), allocator);
    ok = subContext->map(gateCodeGpa, exp.gateCodeHpa(),
                         ept::Perms::Exec);
    ok = ok && subContext->mapRange(gateStackGpa, stackHpa, stackBytes,
                                    ept::Perms::RW);
    ok = ok && subContext->mapRange(exchangeGpa, exchHpa, exchBytes,
                                    ept::Perms::RW);
    // The object window uses 2 MiB pages wherever alignment allows;
    // objectGpa is large-aligned by construction, so a large-aligned
    // full-object window maps entirely with large pages. A narrowed
    // (delegated) window maps only its own frames — the frames beyond
    // it simply do not exist in this sub context.
    //
    // Under demand paging the window must stay 4 KiB-granular instead
    // (only 4 KiB leaves demote to Swapped/Ballooned), and every
    // window page is registered with the pager so an object page
    // faulting mid-gate-call is paged in transparently — billed to
    // the faulting guest, not the object's owner.
    hv::Pager *pager = hv.pager();
    if (pager) {
        ok = ok && subContext->mapRange(objectGpa,
                                        exp.objectHpa() + window_offset,
                                        window_bytes, granted);
    } else {
        ok = ok && subContext->mapWindow(objectGpa, exp.objectHpa(),
                                         exp.objectBytes(),
                                         window_offset, window_bytes,
                                         granted);
    }
    panic_if(!ok, "sub context construction collided");
    if (pager) {
        pager->addMirror(*subContext, objectGpa,
                         exp.objectHpa() + window_offset, window_bytes);
    }

    // Install both contexts on the guest vCPU.
    cpu::Vcpu &guest_cpu = guest_vm.vcpu(vcpu_index);
    auto gate_idx = hv.installEptp(guest_cpu, gateContext->eptp());
    auto sub_idx = hv.installEptp(guest_cpu, subContext->eptp());
    fatal_if(!gate_idx || !sub_idx,
             "EPTP list of vCPU %u is full", guest_cpu.id());

    // Expose the exchange buffer in the guest's default context.
    const Gpa exch_guest = exchangeGuestBase + slot * exchangeStride;
    const bool mapped = guest_vm.defaultEpt().mapRange(
        exch_guest, exchHpa, exchBytes, ept::Perms::RW);
    fatal_if(!mapped, "guest exchange window %llx already occupied",
             (unsigned long long)exch_guest);

    attachInfo.attachment = attachId;
    attachInfo.gateIndex = *gate_idx;
    attachInfo.subIndex = *sub_idx;
    attachInfo.exchangeGuestGpa = exch_guest;
    attachInfo.exchangeBytes = exchBytes;
    attachInfo.objectBytes = window_bytes;
    attachInfo.objectOffset = window_offset;
    attachInfo.perms = static_cast<std::uint32_t>(granted);

    exp.addAttachment();
    hv.stats().inc("elisa_attachments");
}

Attachment::~Attachment()
{
    // Revoke reachability first: clear the EPTP-list entries and flush
    // cached translations, then unmap the guest-side exchange window.
    hv::Vm &guest = hyper.vm(guestVmId);
    cpu::Vcpu &guest_cpu = guest.vcpu(vcpu);
    if (hv::Pager *pager = hyper.pager())
        pager->dropContext(subContext->eptp());
    hyper.removeEptp(guest_cpu, attachInfo.gateIndex);
    hyper.removeEptp(guest_cpu, attachInfo.subIndex);
    guest.defaultEpt().unmapRange(attachInfo.exchangeGuestGpa, exchBytes);
    hyper.inveptAll(guest.defaultEpt().eptp());

    gateContext.reset();
    subContext.reset();
    hyper.allocator().free(stackHpa, stackBytes / pageSize);
    hyper.allocator().free(exchHpa, exchBytes / pageSize);
    exp.dropAttachment();
}

} // namespace elisa::core
