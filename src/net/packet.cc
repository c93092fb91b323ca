#include "net/packet.hh"

#include <array>
#include <cstring>

#include "base/logging.hh"

namespace elisa::net
{

namespace
{

/** Bytes 0, 1, 2, ... wrapping at 256, long enough that the body of
 *  any packet, starting at any phase of the rolling pattern, is one
 *  contiguous slice of it. */
constexpr auto byteRamp = [] {
    std::array<std::uint8_t, 256 + maxPacketBytes> ramp{};
    for (std::size_t i = 0; i < ramp.size(); ++i)
        ramp[i] = static_cast<std::uint8_t>(i);
    return ramp;
}();

} // anonymous namespace

void
fillPattern(std::uint8_t *dst, std::uint32_t seq, std::uint32_t len)
{
    // First word carries the sequence number (the "header"), the rest
    // is a cheap rolling byte pattern derived from it: byte i is
    // (seq * 131 + i) & 0xff, one copy from the ramp.
    panic_if(len < 8 || len > maxPacketBytes,
             "packet length %u outside the pattern's range", len);
    std::memcpy(dst, &seq, 4);
    std::memcpy(dst + 4, &len, 4);
    std::memcpy(dst + 8, &byteRamp[(seq * 131 + 8) & 0xff], len - 8);
}

bool
checkPattern(const std::uint8_t *data, std::uint32_t seq,
             std::uint32_t len)
{
    if (len < 8)
        return false; // no pattern is shorter than its header
    std::uint32_t got_seq = 0, got_len = 0;
    std::memcpy(&got_seq, data, 4);
    std::memcpy(&got_len, data + 4, 4);
    if (got_seq != seq || got_len != len)
        return false;
    // Spot-check a few pattern bytes rather than the whole payload
    // (the copies themselves are already exercised functionally).
    for (std::uint32_t i = 8; i < len; i += 97) {
        if (data[i] !=
            static_cast<std::uint8_t>((seq * 131 + i) & 0xff)) {
            return false;
        }
    }
    return true;
}

Packet
makePacket(std::uint32_t seq, std::uint32_t len)
{
    Packet p;
    p.len = len;
    p.seq = seq;
    p.data.resize(len);
    fillPattern(p.data.data(), seq, len);
    return p;
}

} // namespace elisa::net
