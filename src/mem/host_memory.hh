/**
 * @file
 * Simulated host physical memory.
 *
 * The machine's physical address space is one contiguous range starting
 * at HPA 0, backed by one anonymous host mapping. Pages the simulation
 * never writes stay unbacked and read as zero, so a machine costs host
 * memory in proportion to what it touches. One bit per 4 KiB frame
 * records "written since last zeroed": every mutable access sets it, so
 * a frame whose bit is clear reads as zero, and zeroWritten() scrubs
 * only the frames that need it. Raw access is reserved to
 * "hardware" and hypervisor code (EPT walker, NIC DMA, host-interposition
 * handlers); guest software must go through cpu::GuestView, which applies
 * the EPT translation and permission checks.
 */

#ifndef ELISA_MEM_HOST_MEMORY_HH
#define ELISA_MEM_HOST_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace elisa::mem
{

/**
 * The physical memory of the simulated machine.
 */
class HostMemory
{
  public:
    /** Create @p bytes of physical memory (page aligned, zeroed). */
    explicit HostMemory(std::uint64_t bytes);

    ~HostMemory();

    HostMemory(const HostMemory &) = delete;
    HostMemory &operator=(const HostMemory &) = delete;

    /** Total size in bytes. */
    std::uint64_t size() const { return length; }

    /** Total size in frames. */
    std::uint64_t frameCount() const { return size() / pageSize; }

    /** True if [hpa, hpa+len) lies inside physical memory. */
    bool
    contains(Hpa hpa, std::uint64_t len = 1) const
    {
        return len != 0 && hpa < size() && len <= size() - hpa;
    }

    /**
     * Raw pointer to host bytes backing @p hpa (privileged access), for
     * writing: marks every frame of [hpa, hpa+len) written, so the
     * caller must not write outside that range. Panics when the range
     * escapes physical memory: simulated hardware and the hypervisor
     * are trusted and must not emit wild addresses.
     */
    std::uint8_t *
    raw(Hpa hpa, std::uint64_t len = 1)
    {
        panic_if(!contains(hpa, len),
                 "HPA range [%llx, +%llx) outside physical memory",
                 (unsigned long long)hpa, (unsigned long long)len);
        const std::uint64_t frame = hpa >> pageShift;
        writtenBits[frame / 64] |= std::uint64_t{1} << (frame % 64);
        if ((hpa & pageMask) + len > pageSize)
            markWritten(frame + 1, (hpa + len - 1) >> pageShift);
        return data + hpa;
    }

    /** Const overload of raw(), for reading: marks nothing. */
    const std::uint8_t *
    raw(Hpa hpa, std::uint64_t len = 1) const
    {
        panic_if(!contains(hpa, len),
                 "HPA range [%llx, +%llx) outside physical memory",
                 (unsigned long long)hpa, (unsigned long long)len);
        return data + hpa;
    }

    /** Read a little-endian 64-bit word at @p hpa. */
    std::uint64_t
    read64(Hpa hpa) const
    {
        std::uint64_t v;
        std::memcpy(&v, raw(hpa, 8), 8);
        return v;
    }

    /** Write a little-endian 64-bit word at @p hpa. */
    void
    write64(Hpa hpa, std::uint64_t value)
    {
        std::memcpy(raw(hpa, 8), &value, 8);
    }

    /** Copy @p len bytes out of physical memory. */
    void
    read(Hpa hpa, void *dst, std::uint64_t len) const
    {
        std::memcpy(dst, raw(hpa, len), len);
    }

    /** Copy @p len bytes into physical memory. */
    void
    write(Hpa hpa, const void *src, std::uint64_t len)
    {
        std::memcpy(raw(hpa, len), src, len);
    }

    /** Zero-fill a physical range. */
    void
    zero(Hpa hpa, std::uint64_t len)
    {
        std::memset(raw(hpa, len), 0, len);
    }

    /**
     * True when the frame holding @p hpa was written since it was last
     * zeroed by zeroWritten(). A frame whose bit is clear reads as zero.
     */
    bool written(Hpa hpa) const;

    /**
     * Zero the frames of the page-aligned range [hpa, hpa+len) that were
     * written since they were last zeroed, one memset per run of such
     * frames, and clear their written bits. The range then reads as
     * zero; frames never written are not touched.
     */
    void zeroWritten(Hpa hpa, std::uint64_t len);

  private:
    /** Set the written bits of frames [first, last]. */
    void markWritten(std::uint64_t first, std::uint64_t last);

    /**
     * First frame in [from, end) whose written bit equals @p set, or
     * @p end when there is none.
     */
    std::uint64_t findFrame(std::uint64_t from, std::uint64_t end,
                            bool set) const;

    std::uint8_t *data = nullptr;
    std::uint64_t length;
    /** One bit per frame: written since it was last zeroed. */
    std::vector<std::uint64_t> writtenBits;
};

} // namespace elisa::mem

#endif // ELISA_MEM_HOST_MEMORY_HH
