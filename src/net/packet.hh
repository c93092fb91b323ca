/**
 * @file
 * Packet staging buffer and payload patterns.
 *
 * Packets are identified by a sequence number baked into the payload,
 * so every datapath's functional correctness (bytes actually moved
 * through the rings in simulated memory) is checkable at the sink.
 */

#ifndef ELISA_NET_PACKET_HH
#define ELISA_NET_PACKET_HH

#include <cstdint>
#include <vector>

namespace elisa::net
{

/** Minimum / maximum modelled frame sizes (Ethernet payload range). */
inline constexpr std::uint32_t minPacketBytes = 64;
inline constexpr std::uint32_t maxPacketBytes = 2048;

/**
 * A host-side staging packet (outside simulated memory; used by
 * generators and sinks).
 */
struct Packet
{
    std::uint32_t len = 0;
    std::uint32_t seq = 0;
    std::vector<std::uint8_t> data;
};

/** Build a packet of @p len bytes carrying @p seq in its pattern. */
Packet makePacket(std::uint32_t seq, std::uint32_t len);

/** Fill @p dst (len bytes, 8 <= len <= maxPacketBytes) with the
 *  pattern for @p seq. */
void fillPattern(std::uint8_t *dst, std::uint32_t seq,
                 std::uint32_t len);

/** Verify that @p data carries the pattern for @p seq. */
bool checkPattern(const std::uint8_t *data, std::uint32_t seq,
                  std::uint32_t len);

} // namespace elisa::net

#endif // ELISA_NET_PACKET_HH
