/**
 * @file
 * Simulated host physical memory.
 *
 * The machine's physical address space is one contiguous range starting
 * at HPA 0, backed by one anonymous host mapping. Pages the simulation
 * never writes stay unbacked and read as zero, so a machine costs host
 * memory in proportion to what it touches. Every mutable access records
 * which 64-byte lines it wrote since they were last zeroed: one bit per
 * line in a mask per 4 KiB frame, and one summary bit per frame that
 * says its mask is not empty. A line whose bit is clear reads as zero,
 * and zeroWritten() scrubs only the lines that need it. Raw access is
 * reserved to
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

    /** Bytes per tracked line: a frame has 64 of them. */
    static constexpr std::uint64_t lineBytes = 64;

    /**
     * Raw pointer to host bytes backing @p hpa (privileged access), for
     * writing: marks every line of [hpa, hpa+len) written, so the
     * caller must not write outside that range. Marking more than it
     * writes only costs a scrub; writing more than it marks leaks the
     * bytes to the frame's next owner. Panics when the range escapes
     * physical memory: simulated hardware and the hypervisor are
     * trusted and must not emit wild addresses.
     */
    std::uint8_t *
    raw(Hpa hpa, std::uint64_t len = 1)
    {
        panic_if(!contains(hpa, len),
                 "HPA range [%llx, +%llx) outside physical memory",
                 (unsigned long long)hpa, (unsigned long long)len);
        const std::uint64_t off = hpa & pageMask;
        if (off + len > pageSize) {
            markSpan(hpa, len);
        } else {
            const std::uint64_t frame = hpa >> pageShift;
            lineMasks[frame] |= lineSpan(off, off + len);
            writtenBits[frame / 64] |= std::uint64_t{1} << (frame % 64);
        }
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
     * True when some line of the frame holding @p hpa was written since
     * the frame was last zeroed by zeroWritten().
     */
    bool written(Hpa hpa) const;

    /**
     * The lines of the frame holding @p hpa written since the frame was
     * last zeroed: bit i covers bytes [i * lineBytes, (i+1) * lineBytes)
     * of the frame. A line whose bit is clear reads as zero.
     */
    std::uint64_t writtenLines(Hpa hpa) const;

    /**
     * Zero the lines of the page-aligned range [hpa, hpa+len) that were
     * written since they were last zeroed, one memset per run of such
     * lines, and clear their bits. The range then reads as zero; lines
     * never written are not touched.
     */
    void zeroWritten(Hpa hpa, std::uint64_t len);

  private:
    static_assert(pageSize / lineBytes == 64, "one mask word per frame");

    /** Mask of the lines holding bytes [first, end) of one frame. */
    static std::uint64_t
    lineSpan(std::uint64_t first, std::uint64_t end)
    {
        const std::uint64_t lo = first / lineBytes;
        const std::uint64_t hi = (end - 1) / lineBytes;
        return (~std::uint64_t{0} >> (63 - hi)) & (~std::uint64_t{0} << lo);
    }

    /** Mark the lines of [hpa, hpa+len), which crosses a frame. */
    void markSpan(Hpa hpa, std::uint64_t len);

    std::uint8_t *data = nullptr;
    std::uint64_t length;
    /**
     * One written-line mask per frame, mapped like the memory itself:
     * a page of masks costs host memory only once a frame it covers is
     * written.
     */
    std::uint64_t *lineMasks = nullptr;
    /** One bit per frame: its line mask is not empty. */
    std::vector<std::uint64_t> writtenBits;
};

} // namespace elisa::mem

#endif // ELISA_MEM_HOST_MEMORY_HH
