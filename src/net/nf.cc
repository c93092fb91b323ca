#include "net/nf.hh"

#include "base/logging.hh"

namespace elisa::net
{

const char *
nfKindToString(NfKind kind)
{
    switch (kind) {
      case NfKind::Firewall:
        return "firewall";
      case NfKind::Nat:
        return "nat";
      case NfKind::LoadBalancer:
        return "lb";
      case NfKind::Counter:
        return "counter";
    }
    return "?";
}

void
NfChain::build(RegionIo &io, std::uint64_t off,
               const std::vector<NfKind> &kinds,
               std::uint32_t deny_modulus, std::uint32_t backends)
{
    panic_if(kinds.empty(), "empty NF chain");
    io.write32(off, static_cast<std::uint32_t>(kinds.size()));
    io.write32(off + 4, magic);
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        NfState state{};
        state.kind = static_cast<std::uint32_t>(kinds[i]);
        switch (kinds[i]) {
          case NfKind::Firewall:
            state.param = deny_modulus;
            break;
          case NfKind::LoadBalancer:
            state.param = backends == 0 ? 1 : backends;
            break;
          default:
            state.param = 0;
            break;
        }
        io.write(off + 8 + i * sizeof(NfState), &state,
                 sizeof(state));
    }
}

bool
NfChain::valid(RegionIo &io, std::uint64_t off)
{
    return io.read32(off + 4) == magic && io.read32(off) > 0;
}

NfVerdict
NfChain::process(cpu::Vcpu &vcpu, RegionIo &io, std::uint64_t off,
                 std::uint32_t nfs, std::uint32_t seq, std::uint32_t len)
{
    const std::uint32_t count = io.read32(off);
    if (io.read32(off + 4) != magic || count > nfs)
        return NfVerdict::Corrupt;
    const sim::CostModel &cost = vcpu.costModel();

    // The packet "header": flow id derived from the sequence number,
    // as our synthetic traffic generator encodes it.
    std::uint32_t flow = seq * 2654435761u;

    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint64_t nf_off = off + 8 + i * sizeof(NfState);
        NfState state;
        io.read(nf_off, &state, sizeof(state));
        vcpu.clock().advance(cost.nfWorkNs);

        bool dropped = false;
        switch (static_cast<NfKind>(state.kind)) {
          case NfKind::Firewall:
            if (state.param != 0 && flow % state.param == 0) {
                ++state.drops;
                dropped = true;
            }
            break;
          case NfKind::Nat:
            // Rewrite the flow id (the "address field") and remember
            // the translation in the aux words (tiny NAT table).
            state.aux[flow & 3] = flow;
            flow ^= 0x5a5a5a5au;
            break;
          case NfKind::LoadBalancer:
            // Round-robin backend pick, remembered per chain. build()
            // never stores zero backends.
            if (state.param == 0)
                return NfVerdict::Corrupt;
            state.aux[0] = (state.aux[0] + 1) % state.param;
            flow = (flow & ~0xfu) |
                   static_cast<std::uint32_t>(state.aux[0]);
            break;
          case NfKind::Counter:
            state.bytes += len;
            break;
          default:
            return NfVerdict::Corrupt;
        }
        if (!dropped)
            ++state.hits;
        io.write(nf_off, &state, sizeof(state));
        if (dropped)
            return NfVerdict::Drop;
    }
    return NfVerdict::Pass;
}

std::uint64_t
NfChain::hits(RegionIo &io, std::uint64_t off, std::size_t nf_index)
{
    NfState state;
    io.read(off + 8 + nf_index * sizeof(NfState), &state,
            sizeof(state));
    return state.hits;
}

std::uint64_t
NfChain::drops(RegionIo &io, std::uint64_t off, std::size_t nf_index)
{
    NfState state;
    io.read(off + 8 + nf_index * sizeof(NfState), &state,
            sizeof(state));
    return state.drops;
}

std::uint64_t
NfChain::bytes(RegionIo &io, std::uint64_t off, std::size_t nf_index)
{
    NfState state;
    io.read(off + 8 + nf_index * sizeof(NfState), &state,
            sizeof(state));
    return state.bytes;
}

std::uint32_t
NfChain::length(RegionIo &io, std::uint64_t off)
{
    return io.read32(off);
}

} // namespace elisa::net
