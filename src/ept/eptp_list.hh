/**
 * @file
 * Per-vCPU EPTP list, the hardware structure consulted by VMFUNC leaf 0.
 *
 * Per the SDM, the VMCS points at one 4 KiB page holding up to 512 EPTP
 * values; `VMFUNC(0, idx)` switches the active EPTP to entry idx if that
 * entry is valid, and causes a VM exit otherwise. Only the hypervisor
 * may write the list — that is exactly what keeps ELISA safe: a guest
 * can only ever reach EPT contexts the hypervisor deliberately
 * installed.
 */

#ifndef ELISA_EPT_EPTP_LIST_HH
#define ELISA_EPT_EPTP_LIST_HH

#include <cstdint>
#include <optional>

#include "base/types.hh"
#include "mem/frame_allocator.hh"
#include "mem/host_memory.hh"

namespace elisa::ept
{

/** Number of entries in an EPTP list page. */
inline constexpr unsigned eptpListSize = 512;

/**
 * A 4 KiB EPTP-list page in simulated physical memory.
 */
class EptpList
{
  public:
    /** Allocate and zero the list page. */
    EptpList(mem::HostMemory &memory, mem::FrameAllocator &allocator);

    /** Frees the list page. */
    ~EptpList();

    EptpList(const EptpList &) = delete;
    EptpList &operator=(const EptpList &) = delete;

    /** HPA of the list page (what the VMCS field would hold). */
    Hpa pageAddr() const { return page; }

    /**
     * Install @p eptp at @p index (hypervisor-only operation).
     * Panics on index >= 512 — the hypervisor is trusted code.
     */
    void set(EptpIndex index, std::uint64_t eptp);

    /** Clear entry @p index (making VMFUNC to it exit). */
    void clear(EptpIndex index);

    /**
     * Read entry @p index as the VMFUNC microcode would. Defined here
     * so the optional stays in registers: out of line, it is built in
     * a stack slot and reloaded into the return registers, and the
     * 8-byte reload of its 1-byte flag cannot be store-forwarded,
     * which stalls every VMFUNC.
     * @return the EPTP, or nullopt when the index is out of range or
     *         the entry is invalid (zero).
     */
    std::optional<std::uint64_t>
    lookup(EptpIndex index) const
    {
        if (index >= eptpListSize)
            return std::nullopt;
        const std::uint64_t eptp = mem.read64(page + index * 8ull);
        if (eptp == 0)
            return std::nullopt;
        return eptp;
    }

    /**
     * Find the first zero entry.
     * @return its index, or nullopt when the list is full.
     */
    std::optional<EptpIndex> findFree() const;

    /** Find the index holding @p eptp, if any. */
    std::optional<EptpIndex> find(std::uint64_t eptp) const;

    /** Number of valid entries. */
    unsigned validCount() const { return valid; }

  private:
    mem::HostMemory &mem;
    mem::FrameAllocator &alloc;
    Hpa page;
    /** Non-zero entries, kept by set() and clear(). */
    unsigned valid = 0;
};

} // namespace elisa::ept

#endif // ELISA_EPT_EPTP_LIST_HH
