/**
 * @file
 * A memcached-like server VM whose network I/O runs over one of the
 * five datapaths.
 *
 * The paper's application benchmark varies only the virtual
 * networking scheme under an unmodified memcached; accordingly the
 * server model is: receive a request frame through the path, do the
 * protocol + hash-table work (memcachedCoreNs, plus the KVS core cost
 * of the operation against an in-VM ShmKvs store), and transmit the
 * response frame back through the path.
 */

#ifndef ELISA_MEMCACHED_SERVER_HH
#define ELISA_MEMCACHED_SERVER_HH

#include <cstdint>
#include <memory>

#include "kvs/shm_kvs.hh"
#include "net/paths.hh"
#include "net/phys_nic.hh"

namespace elisa::memcached
{

/** Request frame sizes (mutilate-style small GET/SET traffic). */
inline constexpr std::uint32_t getRequestBytes = 64;
inline constexpr std::uint32_t getResponseBytes = 128;
inline constexpr std::uint32_t setRequestBytes = 128;
inline constexpr std::uint32_t setResponseBytes = 64;

/**
 * The server: owns an in-VM store and serves one request at a time
 * (single worker thread, as the paper's single-vCPU server VMs).
 */
class Server
{
  public:
    /**
     * @param hv the machine.
     * @param vm the server VM (its RAM hosts the store).
     * @param path the networking datapath the server uses.
     * @param store_buckets hash-table size.
     */
    Server(hv::Hypervisor &hv, hv::Vm &vm, net::NetPath &path,
           std::uint64_t store_buckets = 1 << 16);

    /**
     * Serve one request that became visible to the guest at @p ready.
     *
     * @param seq request sequence number.
     * @param is_set SET (write) or GET (read).
     * @param key_id key identifier.
     * @return the time the response frame is ready for the TX wire.
     */
    SimNs serve(std::uint32_t seq, bool is_set, std::uint64_t key_id,
                SimNs ready);

    /** The path (load generator needs its host-side hooks). */
    net::NetPath &path() { return netPath; }

    /** Server vCPU (clock inspection). */
    cpu::Vcpu &vcpu() { return netPath.vcpu(); }

    /** GETs that missed (diagnostics; 0 after warm-up). */
    std::uint64_t misses() const { return missCount; }

  private:
    hv::Hypervisor &hyper;
    net::NetPath &netPath;
    std::unique_ptr<net::HostRegionIo> storeIo;
    std::uint64_t buckets;
    std::uint64_t missCount = 0;
};

} // namespace elisa::memcached

#endif // ELISA_MEMCACHED_SERVER_HH
