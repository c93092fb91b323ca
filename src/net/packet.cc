#include "net/packet.hh"

#include <algorithm>
#include <array>
#include <cstring>

#include "base/logging.hh"

namespace elisa::net
{

namespace
{

/** Bytes 0, 1, ..., 255 twice: any 256-byte run of the rolling
 *  pattern is a contiguous slice of it. */
constexpr auto byteRamp = [] {
    std::array<std::uint8_t, 512> ramp{};
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
    // (seq * 131 + i) & 0xff. It repeats every 256 bytes, so copy it
    // in runs of at most 256 from the ramp.
    panic_if(len < 8, "packet below minimum pattern size");
    std::memcpy(dst, &seq, 4);
    std::memcpy(dst + 4, &len, 4);
    const std::uint8_t *run = &byteRamp[(seq * 131 + 8) & 0xff];
    for (std::uint32_t i = 8; i < len; i += 256)
        std::memcpy(dst + i, run, std::min<std::uint32_t>(256, len - i));
}

bool
checkPattern(const std::uint8_t *data, std::uint32_t seq,
             std::uint32_t len)
{
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
