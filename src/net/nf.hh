/**
 * @file
 * Network-function chains (the HyperNF-class workload of the paper's
 * motivation).
 *
 * A chain is a sequence of stateful NFs — firewall, NAT, load
 * balancer, counter — whose rule tables and state live inside a
 * shared memory region and are manipulated through a RegionIo, so
 * chain processing is real memory traffic under whichever isolation
 * scheme hosts the region. Each NF additionally charges nfWorkNs of
 * matching/lookup compute to the processing vCPU.
 *
 * This is what turns the intro's "-49 % from exits" observation into
 * an emergent result: with a ~4-NF chain of per-packet work, adding a
 * 699 ns VMCALL per packet costs host interposition about half of the
 * direct-mapping throughput (see bench_nf_chain).
 */

#ifndef ELISA_NET_NF_HH
#define ELISA_NET_NF_HH

#include <cstdint>
#include <vector>

#include "cpu/vcpu.hh"
#include "net/desc_ring.hh"
#include "sim/cost_model.hh"

namespace elisa::net
{

/** The NF types of the chain. */
enum class NfKind : std::uint32_t
{
    Firewall = 1,     ///< drops packets matching a deny rule
    Nat = 2,          ///< rewrites the header address field
    LoadBalancer = 3, ///< picks a backend, round robin per flow
    Counter = 4,      ///< per-chain packet/byte accounting
};

/** Render an NF kind. */
const char *nfKindToString(NfKind kind);

/** What NfChain::process did with a packet. */
enum class NfVerdict : std::uint8_t
{
    Pass,    ///< every NF let the packet through
    Drop,    ///< the firewall dropped it
    Corrupt, ///< the chain state is not one the host built: dropped
};

/**
 * Chain state in shared memory. Layout at @p off within the region:
 *
 *   [0]     chain length (u32) + magic (u32)
 *   [8]     per-NF blocks of 64 B:
 *             { kind u32, param u32, hits u64, drops u64,
 *               bytes u64, aux u64[4] }
 *
 * For the firewall, `param` is the deny modulus (seq % param == 0 is
 * denied; 0 = allow all). For the LB, `param` is the backend count.
 *
 * Whoever maps the region can rewrite any of it, so process() treats
 * the stored state as hostile: it walks at most the chain length the
 * host built, and a bad magic, a stored length above that, an unknown
 * NF kind or a load balancer with no backend is a Corrupt verdict,
 * never a panic or a fault. A valid chain makes exactly the region
 * reads and writes it always made, in the same order.
 */
class NfChain
{
  public:
    /**
     * Write a fresh chain's state into the region.
     * @param deny_modulus firewall rule (0 = pass everything).
     * @param backends LB backend count.
     */
    static void build(RegionIo &io, std::uint64_t off,
                      const std::vector<NfKind> &kinds,
                      std::uint32_t deny_modulus = 0,
                      std::uint32_t backends = 4);

    /** True when @p off holds a valid chain. */
    static bool valid(RegionIo &io, std::uint64_t off);

    /**
     * Run one packet through the chain: every NF reads/updates its
     * state through @p io and charges nfWorkNs to @p vcpu.
     * @param nfs the chain length the host built (kinds.size() at
     *        build()); a stored length above it is corrupt.
     * @return Drop when the firewall dropped the packet, Corrupt
     *         (also a drop) when the stored state is not a chain.
     */
    static NfVerdict process(cpu::Vcpu &vcpu, RegionIo &io,
                             std::uint64_t off, std::uint32_t nfs,
                             std::uint32_t seq, std::uint32_t len);

    /** Read one NF's hit counter (stats/verification). */
    static std::uint64_t hits(RegionIo &io, std::uint64_t off,
                              std::size_t nf_index);

    /** Read one NF's drop counter. */
    static std::uint64_t drops(RegionIo &io, std::uint64_t off,
                               std::size_t nf_index);

    /** Read one NF's byte counter. */
    static std::uint64_t bytes(RegionIo &io, std::uint64_t off,
                               std::size_t nf_index);

    /** Chain length stored in the region. */
    static std::uint32_t length(RegionIo &io, std::uint64_t off);

  private:
    struct NfState
    {
        std::uint32_t kind;
        std::uint32_t param;
        std::uint64_t hits;
        std::uint64_t drops;
        std::uint64_t bytes;
        std::uint64_t aux[4];
    };
    static_assert(sizeof(NfState) == 64);

    static constexpr std::uint32_t magic = 0x4e46u; // "NF"
};

} // namespace elisa::net

#endif // ELISA_NET_NF_HH
