/**
 * @file
 * A sharded multi-machine KVS cluster over the log-structured store.
 *
 * Topology: N server machines (one hv::Hypervisor each), joined by a
 * seeded consistent-hash ring. Each machine serves its key range (its
 * shard) from LogKvs stores held by three *nodes*:
 *
 *   primary   the serving copy; GETs walk its bucket index
 *   replica   synchronously replicated: a PUT appends to the replica
 *             log first, then the primary, and acks only after both
 *   standby   a formatted idle copy, the promotion target
 *
 * Under the ELISA scheme every node is a manager VM exporting its
 * store; the shard's server VM attaches a gate to each, so PUTs append
 * *under the sub-EPT context* and GETs walk the index the same way.
 * The VMCALL scheme serves the same stores host-side behind one
 * hypercall per operation; the direct scheme maps them ivshmem-style
 * into the server VM. One executor (the server VM's vCPU 0) per shard
 * serializes a shard's operations in simulated time, so the stores
 * need no write locks — queueing *is* the shard's latency story.
 *
 * Clients are open-loop Poisson arrival processes (zipfian hot keys)
 * homed on a machine; a key owned elsewhere crosses shards through
 * Engine::post() with one netPropagationNs hop each way.
 *
 * Failure and recovery, driven by sim::FaultPlan: when a plan is
 * installed the server issues a protocol-step hypercall before the
 * replica append, between the appends, and at the ack point — the
 * cluster kill matrix's injection sites (without a plan the step is a
 * null-pointer test). Killing the primary manager VM auto-revokes its
 * gates; the next call unwinds with a VM exit, the shard *replays the
 * replica's log* to rebuild its index, promotes it, re-seeds the
 * standby as the new replica, and retries the operation. A destroy
 * hook fingerprints the dying primary's table first, so recovery can
 * prove the replay reconstructed byte-identical logical content.
 *
 * Resharding: ring membership changes between load phases migrate
 * exactly the keys whose successor vnode changed (~1/N), live entry by
 * live entry, charged to the involved servers' clocks.
 */

#ifndef ELISA_KVS_CLUSTER_HH
#define ELISA_KVS_CLUSTER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "elisa/guest_api.hh"
#include "elisa/manager.hh"
#include "elisa/negotiation.hh"
#include "hv/hypervisor.hh"
#include "kvs/hash_ring.hh"
#include "kvs/kv_log.hh"
#include "kvs/store.hh"
#include "sim/engine.hh"
#include "sim/histogram.hh"

namespace elisa::kvs
{

/** How a shard's server reaches its stores (the paper's three). */
using ClusterScheme = Scheme;

/** Render a scheme as it appears in the figures. */
inline const char *
clusterSchemeToString(ClusterScheme scheme)
{
    return schemeName(scheme);
}

/** Cluster geometry and behavior knobs. */
struct ClusterConfig
{
    /** Serving machines (== KVS shards). */
    unsigned servers = 3;

    ClusterScheme scheme = ClusterScheme::Elisa;

    /** Buckets per store (index capacity ~ buckets x 8 keys). */
    std::uint64_t buckets = 1024;

    /** Circular-log slots per store. */
    std::uint64_t logSlots = 16384;

    /** Seed of the consistent-hash ring's vnode positions. */
    std::uint64_t ringSeed = 0xe115a;
};

/** One load phase's aggregated outcome. */
struct ClusterLoadResult
{
    std::uint64_t ops = 0;     ///< requests completed
    std::uint64_t hits = 0;    ///< GETs that found their key
    std::uint64_t corrupt = 0; ///< GETs returning a wrong value
    std::uint64_t failed = 0;  ///< ops refused (overflow; expect 0)
    std::uint64_t acked = 0;   ///< PUTs acknowledged
    std::uint64_t remote = 0;  ///< ops that crossed shards

    /** Key ids of every acknowledged PUT (sorted, deduplicated) —
     *  the no-lost-acknowledged-PUT obligation set. */
    std::vector<std::uint64_t> ackedPutIds;

    /** End-to-end latency over all clients (arrival -> response). */
    sim::Histogram latency{6, 1ull << 40};

    /** Achieved throughput in requests/second. */
    double achievedRps = 0.0;
};

/**
 * The cluster. Construction builds every machine, store, and (ELISA)
 * gate; the instance then runs load phases, takes kills, and reshards.
 */
class KvsCluster
{
  public:
    explicit KvsCluster(const ClusterConfig &config);
    ~KvsCluster();

    KvsCluster(const KvsCluster &) = delete;
    KvsCluster &operator=(const KvsCluster &) = delete;

    /** Insert keys [0, count) host-side (uncharged warm-up fill). */
    void prepopulate(std::uint64_t count);

    /**
     * One open-loop load phase: @p clients_per_server Poisson arrival
     * processes per machine at @p offered_rps_per_client each, drawing
     * zipfian keys (s = 0, uniform) over [0, key_space).
     */
    ClusterLoadResult runLoad(unsigned clients_per_server,
                              double offered_rps_per_client,
                              std::uint64_t requests_per_client,
                              double put_ratio, std::uint64_t key_space,
                              double zipf_s, std::uint64_t seed);

    // ---- fault wiring ----------------------------------------------
    /** Install @p plan on machine @p server's hypervisor. */
    void setFaultPlan(unsigned server, sim::FaultPlan *plan);

    /** Hypercall nr of @p server's protocol-step beacon (kill rules
     *  hang off its occurrences: 3 per PUT, 1 per GET). */
    std::uint64_t stepNr(unsigned server) const;

    /** VM id of the node currently in the given role. */
    VmId primaryVmId(unsigned server) const;
    VmId replicaVmId(unsigned server) const;

    // ---- recovery introspection ------------------------------------
    /** Failovers (primary or replica promotions) on @p server. */
    unsigned failovers(unsigned server) const;

    /** Fingerprint captured from the dying primary (last failover). */
    std::uint64_t lastDyingFingerprint(unsigned server) const;

    /** Fingerprint of the promoted replica after its log replay. */
    std::uint64_t lastPromotedFingerprint(unsigned server) const;

    /** Current primary-store fingerprint of @p server (host-side). */
    std::uint64_t fingerprintOf(unsigned server);

    /** Live keys on @p server's primary store. */
    std::uint64_t liveEntriesOf(unsigned server);

    /** True when key @p id is present on its owning shard. */
    bool hostHas(std::uint64_t id);

    // ---- resharding -------------------------------------------------
    /**
     * Take @p server out of the ring and migrate its live entries to
     * their new owners. @return entries migrated.
     */
    std::uint64_t reshardRemove(unsigned server);

    /**
     * Put @p server (back) into the ring and pull over the entries it
     * now owns. @return entries migrated.
     */
    std::uint64_t reshardAdd(unsigned server);

    // ---- plumbing ----------------------------------------------------
    unsigned serverCount() const;
    hv::Hypervisor &hv(unsigned server);
    cpu::Vcpu &serverVcpu(unsigned server);
    const HashRing &ring() const { return hashRing; }

    /** Owning shard of key id @p id under the current ring. */
    unsigned ownerOf(std::uint64_t id) const;

  private:
    struct Node;
    struct ServerMachine;
    class ClientActor;
    friend class ClientActor;

    /** Outcome of one served operation. */
    struct ServeResult
    {
        bool ok = false;
        Value value{};  ///< GET payload when ok
        SimNs finish = 0;
    };

    /** Execute one op on @p server no earlier than @p ready. */
    ServeResult serve(unsigned server, bool is_put, std::uint64_t id,
                      SimNs ready);

    /** Route one client request to a remote owner via the engine. */
    void postRequest(ClientActor &client, unsigned owner, bool is_put,
                     std::uint64_t id, SimNs t0);

    /** One-way client<->shard / shard<->shard network hop. */
    SimNs hopNs() const;

    /** Host-side put into @p server's primary + replica (migration /
     *  prepopulation); charges @p server's clock when @p charge. */
    void hostPut(unsigned server, const Key &key, const Value &value,
                 bool charge);

    ClusterConfig cfg;
    HashRing hashRing;
    std::vector<std::unique_ptr<ServerMachine>> machines;
    sim::Engine eng;
};

} // namespace elisa::kvs

#endif // ELISA_KVS_CLUSTER_HH
