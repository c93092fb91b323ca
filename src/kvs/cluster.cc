#include "kvs/cluster.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"
#include "base/units.hh"
#include "cpu/exit.hh"
#include "cpu/guest_view.hh"
#include "sim/rng.hh"
#include "sim/zipf.hh"

namespace elisa::kvs
{

namespace
{

/**
 * The log store's operations: GET, PUT (log append) and remove
 * (tombstone append). No write locks: a shard has exactly one executor
 * vCPU, so operations are already serialized on its clock.
 */
StoreOps
logKvsOps()
{
    return {
        {0, true,
         [](cpu::Vcpu &cpu, RegionIo &io, OpArgs &a) {
             cpu.clock().advance(cpu.costModel().kvsGetCoreNs);
             auto value = LogKvs::get(io, a.key);
             if (value)
                 a.value = *value;
             return value.has_value();
         }},
        {1, false,
         [](cpu::Vcpu &cpu, RegionIo &io, OpArgs &a) {
             cpu.clock().advance(cpu.costModel().kvsPutCoreNs);
             return LogKvs::put(io, a.key, a.value);
         }},
        {0, false,
         [](cpu::Vcpu &cpu, RegionIo &io, OpArgs &a) {
             cpu.clock().advance(cpu.costModel().kvsPutCoreNs);
             return LogKvs::remove(io, a.key);
         }},
    };
}

} // namespace

// ---- one store node --------------------------------------------------

struct KvsCluster::Node
{
    /** ELISA: the manager VM holding this copy, and its runtime. */
    VmId vmId = invalidVmId;
    std::unique_ptr<core::ElisaManager> manager;

    std::unique_ptr<Store> store;
    std::unique_ptr<StoreClient> client; ///< the server vCPU's side

    /** Privileged access (prepopulation, recovery, fingerprints). */
    RegionIo &host() { return store->hostIo(); }
};

// ---- one server machine (== one KVS shard) ---------------------------

struct KvsCluster::ServerMachine
{
    ServerMachine(const ClusterConfig &config, unsigned index);

    cpu::Vcpu &vcpu() { return serverVm.vcpu(0); }

    /** Protocol-step beacon: one hypercall per injection site, only
     *  when a fault plan is installed (a pointer test otherwise). */
    void stepCall();

    std::optional<Value> serveGet(const Key &key);
    bool servePut(const Key &key, const Value &value);

    /** Fail over any role whose VM is already gone (sync-point kill
     *  detection, before the op touches a store). */
    void recoverDeadNodes();

    void failoverPrimary();
    void failoverReplica();
    void reseedStandby();

    ClusterScheme scheme;
    std::uint64_t buckets;
    std::uint64_t logSlots;
    hv::Hypervisor hv;
    core::ElisaService svc;
    hv::Vm &serverVm;
    std::unique_ptr<core::ElisaGuest> guest; ///< ELISA scheme only
    std::array<Node, 3> nodes;

    /** Role -> node index. */
    unsigned primary = 0, replica = 1, standby = 2;
    bool hasReplica = true, hasStandby = true;

    std::uint64_t stepHc = 0;

    // Recovery bookkeeping (see failoverPrimary).
    std::uint64_t dyingFp = 0;
    bool dyingFpValid = false;
    std::uint64_t lastDyingFp = 0;
    std::uint64_t lastPromotedFp = 0;
    unsigned failoverCount = 0;
};

KvsCluster::ServerMachine::ServerMachine(const ClusterConfig &config,
                                         unsigned index)
    : scheme(config.scheme), buckets(config.buckets),
      logSlots(config.logSlots), hv(192 * MiB), svc(hv),
      serverVm(hv.createVm("server" + std::to_string(index), 32 * MiB))
{
    stepHc = hv.allocServiceNr();
    hv.registerHypercall(
        stepHc, [](cpu::Vcpu &, const cpu::HypercallArgs &) {
            return std::uint64_t{0};
        });
    hv.setHypercallName(stepHc, "cluster_step");

    // Fingerprint a dying store before its RAM is freed: the destroy
    // hook runs while the VM still exists, so recovery can later prove
    // the replica replay reconstructed identical logical content.
    hv.addVmDestroyHook([this](VmId id) {
        for (Node &node : nodes) {
            if (node.vmId == id && node.store &&
                LogKvs::formatted(node.host())) {
                dyingFp = LogKvs::fingerprint(node.host());
                dyingFpValid = true;
            }
        }
    });

    // ELISA puts each copy in its own manager VM behind a gate of the
    // server's; VMCALL marshals every node's operands through one page.
    Gpa buf = 0;
    if (scheme == ClusterScheme::Elisa)
        guest = std::make_unique<core::ElisaGuest>(serverVm, svc);
    if (scheme == ClusterScheme::Vmcall)
        buf = operandBuffer(serverVm);
    const std::uint64_t bytes = LogKvs::regionBytesFor(buckets, logSlots);
    for (unsigned n = 0; n < nodes.size(); ++n) {
        Node &node = nodes[n];
        const std::string name =
            "log" + std::to_string(index) + "-" + std::to_string(n);
        if (guest) {
            hv::Vm &vm = hv.createVm("store" + std::to_string(index) +
                                         "-" + std::to_string(n),
                                     32 * MiB);
            node.vmId = vm.id();
            node.manager = std::make_unique<core::ElisaManager>(vm, svc);
        }
        // Direct-scheme windows sit 1 GiB apart in the server VM.
        node.store = std::make_unique<Store>(
            hv, scheme, name, bytes, logKvsOps(), node.manager.get(),
            0x540000000000ull + std::uint64_t{n} * 0x40000000ull);
        LogKvs::format(node.host(), buckets, logSlots);
        node.client =
            guest ? std::make_unique<StoreClient>(*node.store,
                                                  *node.manager, *guest)
                  : std::make_unique<StoreClient>(*node.store, serverVm,
                                                  0, buf);
    }
}

void
KvsCluster::ServerMachine::stepCall()
{
    if (!hv.faultPlan())
        return;
    cpu::HypercallArgs args;
    args.nr = stepHc;
    vcpu().vmcall(args);
}

void
KvsCluster::ServerMachine::recoverDeadNodes()
{
    // Only the ELISA scheme puts store copies into killable VMs, and
    // without a fault plan nothing ever dies.
    if (scheme != ClusterScheme::Elisa || !hv.faultPlan())
        return;
    if (!hv.hasVm(nodes[primary].vmId)) {
        // Detected at a sync point: no append raced the kill, so the
        // promoted replay must reconstruct the dying table exactly.
        failoverPrimary();
    }
    if (hasReplica && !hv.hasVm(nodes[replica].vmId))
        failoverReplica();
}

std::optional<Value>
KvsCluster::ServerMachine::serveGet(const Key &key)
{
    stepCall();
    recoverDeadNodes();
    for (int attempt = 0; attempt < 2; ++attempt) {
        Node &p = nodes[primary];
        try {
            return p.client->get(key);
        } catch (const cpu::VmExitEvent &) {
            // Only a dead store VM is recoverable; anything else (a
            // kill aimed at the server VM itself, say) unwinds.
            if (attempt == 1 || hv.hasVm(p.vmId))
                throw;
            failoverPrimary();
        }
    }
    panic("KVS shard GET retry exhausted after failover");
    return std::nullopt;
}

bool
KvsCluster::ServerMachine::servePut(const Key &key, const Value &value)
{
    stepCall(); // injection site 1: the PUT was admitted
    recoverDeadNodes();
    if (hasReplica) {
        for (int attempt = 0; attempt < 2 && hasReplica; ++attempt) {
            Node &r = nodes[replica];
            try {
                r.client->put(key, value);
                break;
            } catch (const cpu::VmExitEvent &) {
                if (attempt == 1 || hv.hasVm(r.vmId))
                    throw;
                failoverReplica();
            }
        }
        stepCall(); // injection site 2: the replica append is durable
    }
    bool ok = false;
    for (int attempt = 0; attempt < 2; ++attempt) {
        Node &p = nodes[primary];
        try {
            ok = p.client->put(key, value);
            break;
        } catch (const cpu::VmExitEvent &) {
            if (attempt == 1 || hv.hasVm(p.vmId))
                throw;
            // The promoted replica already holds this PUT's record
            // (its append preceded the kill); the retry below is an
            // idempotent overwrite.
            failoverPrimary();
        }
    }
    stepCall(); // injection site 3: the ack point
    return ok;
}

void
KvsCluster::ServerMachine::failoverPrimary()
{
    panic_if(!hasReplica,
             "KVS shard lost its primary with no replica to promote");
    panic_if(!dyingFpValid,
             "primary died without a captured fingerprint");
    lastDyingFp = dyingFp;
    dyingFpValid = false;

    // Promote: recovery trusts only the log — rebuild the replica's
    // index by replaying it, exactly what a fresh process attaching
    // the shm region after a crash would do.
    Node &r = nodes[replica];
    const std::uint64_t applied = LogKvs::replay(r.host());
    vcpu().clock().advance(applied * hv.cost().kvsGetCoreNs);
    lastPromotedFp = LogKvs::fingerprint(r.host());

    primary = replica;
    hasReplica = false;
    if (hasStandby) {
        reseedStandby();
        replica = standby;
        hasStandby = false;
        hasReplica = true;
    }
    ++failoverCount;
}

void
KvsCluster::ServerMachine::failoverReplica()
{
    if (dyingFpValid) {
        lastDyingFp = dyingFp;
        dyingFpValid = false;
    }
    hasReplica = false;
    if (hasStandby) {
        reseedStandby();
        replica = standby;
        hasStandby = false;
        hasReplica = true;
    }
    ++failoverCount;
}

void
KvsCluster::ServerMachine::reseedStandby()
{
    Node &s = nodes[standby];
    LogKvs::format(s.host(), buckets, logSlots);
    std::uint64_t copied = 0;
    LogKvs::forEachLive(
        nodes[primary].host(),
        [&](const Key &key, const Value &value) {
            const bool ok = LogKvs::put(s.host(), key, value);
            panic_if(!ok, "standby re-seed overflowed the store");
            ++copied;
            return true;
        });
    vcpu().clock().advance(copied * hv.cost().kvsPutCoreNs);
}

// ---- client actors ---------------------------------------------------

/**
 * One open-loop Poisson arrival process homed on a machine. The actor
 * clock is the *arrival* clock: requests are issued at their arrival
 * time regardless of completion (open loop), local operations execute
 * synchronously on the home shard's server vCPU, and remote ones
 * travel through Engine::post with a network hop each way — responses
 * land as events even after the actor stopped stepping.
 */
class KvsCluster::ClientActor : public sim::Actor
{
  public:
    ClientActor(KvsCluster &c, unsigned home_shard, double mean_gap_ns,
                std::uint64_t requests, double put_ratio,
                std::uint64_t key_space, double zipf_s,
                std::uint64_t seed, SimNs start)
        : cluster(c), home(home_shard), meanGapNs(mean_gap_ns),
          remaining(requests), putRatio(put_ratio),
          keySpace(key_space), rng(seed)
    {
        if (zipf_s > 0.0)
            zipf = std::make_unique<sim::Zipf>(key_space, zipf_s);
        arrival = (double)start + rng.exponential(meanGapNs);
        current = static_cast<SimNs>(arrival);
        firstIssue = current;
    }

    SimNs actorNow() const override { return current; }

    bool
    step() override
    {
        const SimNs t = current;
        const std::uint64_t id =
            zipf ? sim::Zipf::spreadRank(zipf->sample(rng), keySpace)
                 : rng.below(keySpace);
        const bool is_put = rng.chance(putRatio);
        const unsigned owner = cluster.ownerOf(id);
        if (owner == home) {
            complete(is_put, id, t, cluster.serve(home, is_put, id, t));
        } else {
            ++remote;
            cluster.postRequest(*this, owner, is_put, id, t);
        }
        arrival += rng.exponential(meanGapNs);
        current = static_cast<SimNs>(arrival);
        return --remaining > 0;
    }

    void
    complete(bool is_put, std::uint64_t id, SimNs t0,
             const ServeResult &r)
    {
        ++ops;
        latency.record(r.finish - t0);
        if (r.finish > lastDone)
            lastDone = r.finish;
        if (is_put) {
            if (r.ok) {
                ++acked;
                ackedIds.push_back(id);
            } else {
                ++failed;
            }
        } else if (!r.ok) {
            ++failed; // prepopulated keys must always hit
        } else {
            ++hits;
            const Value want = makeValue(id);
            if (std::memcmp(r.value.data(), want.data(), valueBytes) !=
                0)
                ++corrupt;
        }
    }

    KvsCluster &cluster;
    unsigned home;
    double meanGapNs;
    std::uint64_t remaining;
    double putRatio;
    std::uint64_t keySpace;
    sim::Rng rng;
    std::unique_ptr<sim::Zipf> zipf;
    double arrival = 0.0;
    SimNs current = 0;

    // Results.
    std::uint64_t ops = 0, hits = 0, corrupt = 0, failed = 0;
    std::uint64_t acked = 0, remote = 0;
    std::vector<std::uint64_t> ackedIds;
    sim::Histogram latency{6, 1ull << 40};
    SimNs firstIssue = 0, lastDone = 0;
};

// ---- the cluster -----------------------------------------------------

KvsCluster::KvsCluster(const ClusterConfig &config)
    : cfg(config), hashRing(config.ringSeed)
{
    panic_if(cfg.servers == 0, "a cluster needs at least one server");
    for (unsigned s = 0; s < cfg.servers; ++s) {
        machines.push_back(std::make_unique<ServerMachine>(cfg, s));
        hashRing.addNode(s);
    }
}

KvsCluster::~KvsCluster() = default;

unsigned
KvsCluster::serverCount() const
{
    return static_cast<unsigned>(machines.size());
}

hv::Hypervisor &
KvsCluster::hv(unsigned server)
{
    return machines.at(server)->hv;
}

cpu::Vcpu &
KvsCluster::serverVcpu(unsigned server)
{
    return machines.at(server)->vcpu();
}

unsigned
KvsCluster::ownerOf(std::uint64_t id) const
{
    return hashRing.ownerOf(makeKey(id));
}

SimNs
KvsCluster::hopNs() const
{
    // Posts must deliver strictly after the posting item.
    return std::max<SimNs>(machines.front()->hv.cost().netPropagationNs,
                           1);
}

void
KvsCluster::setFaultPlan(unsigned server, sim::FaultPlan *plan)
{
    machines.at(server)->hv.setFaultPlan(plan);
}

std::uint64_t
KvsCluster::stepNr(unsigned server) const
{
    return machines.at(server)->stepHc;
}

VmId
KvsCluster::primaryVmId(unsigned server) const
{
    const ServerMachine &m = *machines.at(server);
    return m.nodes[m.primary].vmId;
}

VmId
KvsCluster::replicaVmId(unsigned server) const
{
    const ServerMachine &m = *machines.at(server);
    panic_if(!m.hasReplica, "shard has no replica");
    return m.nodes[m.replica].vmId;
}

unsigned
KvsCluster::failovers(unsigned server) const
{
    return machines.at(server)->failoverCount;
}

std::uint64_t
KvsCluster::lastDyingFingerprint(unsigned server) const
{
    return machines.at(server)->lastDyingFp;
}

std::uint64_t
KvsCluster::lastPromotedFingerprint(unsigned server) const
{
    return machines.at(server)->lastPromotedFp;
}

std::uint64_t
KvsCluster::fingerprintOf(unsigned server)
{
    ServerMachine &m = *machines.at(server);
    return LogKvs::fingerprint(m.nodes[m.primary].host());
}

std::uint64_t
KvsCluster::liveEntriesOf(unsigned server)
{
    ServerMachine &m = *machines.at(server);
    return LogKvs::liveEntries(m.nodes[m.primary].host());
}

bool
KvsCluster::hostHas(std::uint64_t id)
{
    ServerMachine &m = *machines.at(ownerOf(id));
    return LogKvs::get(m.nodes[m.primary].host(), makeKey(id))
        .has_value();
}

void
KvsCluster::hostPut(unsigned server, const Key &key, const Value &value,
                    bool charge)
{
    ServerMachine &m = *machines.at(server);
    fatal_if(!LogKvs::put(m.nodes[m.primary].host(), key, value),
             "cluster store overflow on server %u (raise the geometry)",
             server);
    if (m.hasReplica)
        fatal_if(!LogKvs::put(m.nodes[m.replica].host(), key, value),
                 "cluster replica overflow on server %u", server);
    if (charge)
        m.vcpu().clock().advance(m.hv.cost().kvsPutCoreNs);
}

void
KvsCluster::prepopulate(std::uint64_t count)
{
    for (std::uint64_t id = 0; id < count; ++id)
        hostPut(ownerOf(id), makeKey(id), makeValue(id),
                /*charge=*/false);
}

KvsCluster::ServeResult
KvsCluster::serve(unsigned server, bool is_put, std::uint64_t id,
                  SimNs ready)
{
    ServerMachine &m = *machines.at(server);
    // Queueing happens here: the shard's single executor picks the
    // request up when both it and the request are ready.
    m.vcpu().clock().syncTo(ready);
    ServeResult result;
    const Key key = makeKey(id);
    if (is_put) {
        result.ok = m.servePut(key, makeValue(id));
    } else {
        auto value = m.serveGet(key);
        result.ok = value.has_value();
        if (value)
            result.value = *value;
    }
    result.finish = m.vcpu().clock().now();
    return result;
}

void
KvsCluster::postRequest(ClientActor &client, unsigned owner,
                        bool is_put, std::uint64_t id, SimNs t0)
{
    ClientActor *cl = &client;
    eng.post(t0 + hopNs(),
             [this, cl, owner, is_put, id, t0](SimNs deliver) {
                 const ServeResult r = serve(owner, is_put, id, deliver);
                 eng.post(r.finish + hopNs(),
                          [cl, is_put, id, t0, r](SimNs) {
                              cl->complete(is_put, id, t0, r);
                          });
             });
}

ClusterLoadResult
KvsCluster::runLoad(unsigned clients_per_server,
                    double offered_rps_per_client,
                    std::uint64_t requests_per_client, double put_ratio,
                    std::uint64_t key_space, double zipf_s,
                    std::uint64_t seed)
{
    panic_if(clients_per_server == 0 || requests_per_client == 0 ||
                 key_space == 0,
             "empty cluster load phase");
    panic_if(offered_rps_per_client <= 0.0,
             "offered load must be positive");

    eng.clear();

    // Start arrivals at the cluster-wide frontier so consecutive load
    // phases on one cluster compose.
    SimNs start = 0;
    for (auto &m : machines)
        start = std::max(start, m->vcpu().clock().now());

    const double mean_gap_ns = 1e9 / offered_rps_per_client;
    std::vector<std::unique_ptr<ClientActor>> clients;
    unsigned index = 0;
    for (unsigned s = 0; s < machines.size(); ++s) {
        for (unsigned c = 0; c < clients_per_server; ++c, ++index) {
            clients.push_back(std::make_unique<ClientActor>(
                *this, s, mean_gap_ns, requests_per_client, put_ratio,
                key_space, zipf_s,
                seed * 0x9e3779b97f4a7c15ull + index, start));
            eng.add(clients.back().get());
        }
    }
    eng.run();

    ClusterLoadResult result;
    SimNs first = ~SimNs{0}, last = 0;
    for (auto &cl : clients) {
        result.ops += cl->ops;
        result.hits += cl->hits;
        result.corrupt += cl->corrupt;
        result.failed += cl->failed;
        result.acked += cl->acked;
        result.remote += cl->remote;
        result.latency.merge(cl->latency);
        result.ackedPutIds.insert(result.ackedPutIds.end(),
                                  cl->ackedIds.begin(),
                                  cl->ackedIds.end());
        first = std::min(first, cl->firstIssue);
        last = std::max(last, cl->lastDone);
    }
    std::sort(result.ackedPutIds.begin(), result.ackedPutIds.end());
    result.ackedPutIds.erase(std::unique(result.ackedPutIds.begin(),
                                         result.ackedPutIds.end()),
                             result.ackedPutIds.end());
    if (result.ops > 1 && last > first)
        result.achievedRps = (double)(result.ops - 1) * 1e9 /
                             (double)(last - first);
    return result;
}

std::uint64_t
KvsCluster::reshardRemove(unsigned server)
{
    panic_if(!hashRing.hasNode(server), "server is not a ring member");
    panic_if(hashRing.nodeCount() < 2,
             "cannot drain the last ring member");
    hashRing.removeNode(server);

    ServerMachine &m = *machines.at(server);
    std::vector<std::pair<Key, Value>> moved;
    LogKvs::forEachLive(m.nodes[m.primary].host(),
                        [&](const Key &key, const Value &value) {
                            moved.emplace_back(key, value);
                            return true;
                        });
    for (const auto &[key, value] : moved)
        hostPut(hashRing.ownerOf(key), key, value, /*charge=*/true);
    m.vcpu().clock().advance(moved.size() * m.hv.cost().kvsGetCoreNs);

    // The drained shard keeps running (it may rejoin) with empty
    // stores.
    LogKvs::format(m.nodes[m.primary].host(), m.buckets, m.logSlots);
    if (m.hasReplica)
        LogKvs::format(m.nodes[m.replica].host(), m.buckets, m.logSlots);
    return moved.size();
}

std::uint64_t
KvsCluster::reshardAdd(unsigned server)
{
    panic_if(hashRing.hasNode(server), "server already in the ring");
    panic_if(server >= machines.size(), "unknown server");
    hashRing.addNode(server);

    std::uint64_t migrated = 0;
    for (unsigned s = 0; s < machines.size(); ++s) {
        if (s == server)
            continue;
        ServerMachine &src = *machines[s];
        std::vector<std::pair<Key, Value>> moved;
        LogKvs::forEachLive(
            src.nodes[src.primary].host(),
            [&](const Key &key, const Value &value) {
                if (hashRing.ownerOf(key) == server)
                    moved.emplace_back(key, value);
                return true;
            });
        for (const auto &[key, value] : moved) {
            hostPut(server, key, value, /*charge=*/true);
            LogKvs::remove(src.nodes[src.primary].host(), key);
            if (src.hasReplica)
                LogKvs::remove(src.nodes[src.replica].host(), key);
        }
        src.vcpu().clock().advance(moved.size() *
                                   src.hv.cost().kvsPutCoreNs);
        migrated += moved.size();
    }
    return migrated;
}

} // namespace elisa::kvs
