#include "net/desc_ring.hh"

#include <algorithm>

#include "base/logging.hh"

namespace elisa::net
{

namespace
{

struct Desc
{
    std::uint64_t bufOffset;
    std::uint32_t len;
    std::uint32_t seq;
};

std::uint64_t
descSlotOff(std::uint32_t index)
{
    return DescRing::descOff +
           16ull * (index & (DescRing::ringEntries - 1));
}

std::uint64_t
bufSlotOff(std::uint32_t index)
{
    return DescRing::bufAreaOff +
           std::uint64_t{DescRing::bufBytes} *
               (index & (DescRing::ringEntries - 1));
}

} // anonymous namespace

void
DescRing::init(RegionIo &io)
{
    io.write32(0, 0);
    io.write32(4, 0);
}

std::uint32_t
DescRing::count(RegionIo &io)
{
    const std::uint32_t prod = io.read32(0);
    const std::uint32_t cons = io.read32(4);
    return prod - cons;
}

bool
DescRing::push(RegionIo &io, const std::uint8_t *payload,
               std::uint32_t len, std::uint32_t seq)
{
    panic_if(len > bufBytes, "packet larger than ring buffer");
    const std::uint32_t prod = io.read32(0);
    const std::uint32_t cons = io.read32(4);
    if (prod - cons >= ringEntries)
        return false;

    const std::uint64_t buf = bufSlotOff(prod);
    io.write(buf, payload, len);

    Desc d{buf, len, seq};
    io.write(descSlotOff(prod), &d, sizeof(d));
    io.write32(0, prod + 1);
    return true;
}

bool
DescRing::pushPattern(RegionIo &io, std::uint32_t seq, std::uint32_t len)
{
    std::uint8_t staging[bufBytes];
    fillPattern(staging, seq, len);
    return push(io, staging, len, seq);
}

std::optional<std::pair<std::uint32_t, std::uint32_t>>
DescRing::pop(RegionIo &io, std::uint8_t (&payload)[bufBytes])
{
    const std::uint32_t prod = io.read32(0);
    const std::uint32_t cons = io.read32(4);
    if (prod == cons)
        return std::nullopt;

    Desc d;
    io.read(descSlotOff(cons), &d, sizeof(d));
    io.read(bufSlotOff(cons), payload, std::min(d.len, bufBytes));
    io.write32(4, cons + 1);
    return std::make_pair(d.seq, d.len);
}

std::optional<Packet>
DescRing::pop(RegionIo &io)
{
    std::uint8_t payload[bufBytes];
    const auto seq_len = pop(io, payload);
    if (!seq_len)
        return std::nullopt;
    Packet p;
    p.seq = seq_len->first;
    p.len = seq_len->second;
    p.data.assign(payload, payload + std::min(p.len, bufBytes));
    return p;
}

std::optional<std::pair<std::uint32_t, std::uint32_t>>
DescRing::popHeader(RegionIo &io)
{
    const std::uint32_t prod = io.read32(0);
    const std::uint32_t cons = io.read32(4);
    if (prod == cons)
        return std::nullopt;

    Desc d;
    io.read(descSlotOff(cons), &d, sizeof(d));
    // Touch the header word of the payload (forwarding decision).
    std::uint64_t header;
    io.read(bufSlotOff(cons), &header, sizeof(header));
    io.write32(4, cons + 1);
    return std::make_pair(d.seq, d.len);
}

} // namespace elisa::net
