/**
 * @file
 * Descriptor rings in simulated memory.
 *
 * A ring occupies one contiguous region with this layout:
 *
 *   [0]           producer index (u32, monotonically increasing)
 *   [4]           consumer index (u32)
 *   [64 ...]      ringEntries descriptors of 16 B each:
 *                   { bufOffset u64, len u32, seq u32 }
 *   [bufAreaOff.] ringEntries fixed buffers of bufBytes each
 *
 * Producers/consumers address the region through a RegionIo, which is
 * either privileged host access (NIC DMA engine, host backends) or a
 * guest view (drivers) — in the latter case every access is still
 * EPT-checked. Time is charged by the datapaths as calibrated lumps,
 * so RegionIo accesses themselves are uncharged (see paths.hh).
 */

#ifndef ELISA_NET_DESC_RING_HH
#define ELISA_NET_DESC_RING_HH

#include <cstdint>
#include <optional>

#include "base/types.hh"
#include "cpu/guest_view.hh"
#include "mem/host_memory.hh"
#include "net/packet.hh"

namespace elisa::net
{

/** Byte-level access to a ring region from one party's address space. */
class RegionIo
{
  public:
    virtual ~RegionIo() = default;

    /** Read @p len bytes at region offset @p off. */
    virtual void read(std::uint64_t off, void *dst,
                      std::uint64_t len) = 0;

    /** Write @p len bytes at region offset @p off. */
    virtual void write(std::uint64_t off, const void *src,
                       std::uint64_t len) = 0;

    std::uint32_t
    read32(std::uint64_t off)
    {
        std::uint32_t v;
        read(off, &v, 4);
        return v;
    }

    void
    write32(std::uint64_t off, std::uint32_t v)
    {
        write(off, &v, 4);
    }
};

/** Privileged access (simulated hardware / hypervisor backends). */
class HostRegionIo : public RegionIo
{
  public:
    HostRegionIo(mem::HostMemory &memory, Hpa base)
        : mem(memory), baseHpa(base)
    {
    }

    void
    read(std::uint64_t off, void *dst, std::uint64_t len) override
    {
        mem.read(baseHpa + off, dst, len);
    }

    void
    write(std::uint64_t off, const void *src, std::uint64_t len) override
    {
        mem.write(baseHpa + off, src, len);
    }

    /** Host cache hint for region offset @p off (HostMemory::prefetch). */
    void
    prefetch(std::uint64_t off) const
    {
        mem.prefetch(baseHpa + off);
    }

  private:
    mem::HostMemory &mem;
    Hpa baseHpa;
};

/**
 * Guest access through the active EPT context (checked, uncharged —
 * datapaths charge calibrated lumps instead).
 */
class GuestRegionIo : public RegionIo
{
  public:
    GuestRegionIo(cpu::Vcpu &vcpu, Gpa base)
        : view(vcpu, /*charge_time=*/false), baseGpa(base)
    {
    }

    void
    read(std::uint64_t off, void *dst, std::uint64_t len) override
    {
        view.readBytes(baseGpa + off, dst, len);
    }

    void
    write(std::uint64_t off, const void *src, std::uint64_t len) override
    {
        view.writeBytes(baseGpa + off, src, len);
    }

  private:
    cpu::GuestView view;
    Gpa baseGpa;
};

/**
 * Ring geometry + producer/consumer operations over a RegionIo.
 */
class DescRing
{
  public:
    /** Entries per ring (power of two). */
    static constexpr std::uint32_t ringEntries = 256;

    /** Fixed per-entry buffer size. */
    static constexpr std::uint32_t bufBytes = maxPacketBytes;

    /** Offset of the descriptor array. */
    static constexpr std::uint64_t descOff = 64;

    /** Offset of the buffer area. */
    static constexpr std::uint64_t bufAreaOff =
        descOff + 16ull * ringEntries;

    /** Total region bytes needed for one ring. */
    static constexpr std::uint64_t regionBytes =
        bufAreaOff + std::uint64_t{ringEntries} * bufBytes;

    /** Zero the indices (producer == consumer == 0). */
    static void init(RegionIo &io);

    /** Number of filled slots. */
    static std::uint32_t count(RegionIo &io);

    /** Number of free slots. */
    static std::uint32_t
    freeSlots(RegionIo &io)
    {
        return ringEntries - count(io);
    }

    /**
     * Produce one packet: copy the payload into the next slot's buffer
     * and publish its descriptor.
     * @return false when the ring is full.
     */
    static bool push(RegionIo &io, const std::uint8_t *payload,
                     std::uint32_t len, std::uint32_t seq);

    /**
     * Produce one packet whose payload is the sequence pattern (what a
     * sub-context NF does). The pattern is staged in a host stack
     * buffer, then copied into the slot through @p io like push().
     */
    static bool pushPattern(RegionIo &io, std::uint32_t seq,
                            std::uint32_t len);

    /**
     * Consume one packet: read the descriptor and copy the payload
     * into @p payload. The payload comes from the consumer's own slot,
     * where every producer writes it; the descriptor's bufOffset,
     * which a peer can rewrite, is not followed. Its len, which a peer
     * can rewrite too, is reported as written, but at most bufBytes
     * are copied: a len above bufBytes matches no honest packet.
     * @return {seq, len}, or nullopt when the ring is empty.
     */
    static std::optional<std::pair<std::uint32_t, std::uint32_t>>
    pop(RegionIo &io, std::uint8_t (&payload)[bufBytes]);

    /**
     * pop() into a Packet whose data holds the copied bytes, which
     * are fewer than len when the len is forged.
     * @return the packet, or nullopt when the ring is empty.
     */
    static std::optional<Packet> pop(RegionIo &io);

    /**
     * Consume one packet, reading only the descriptor + header word
     * (what forwarding NFs do); payload bytes stay in the ring.
     * @return {seq, len}, or nullopt when empty.
     */
    static std::optional<std::pair<std::uint32_t, std::uint32_t>>
    popHeader(RegionIo &io);
};

} // namespace elisa::net

#endif // ELISA_NET_DESC_RING_HH
