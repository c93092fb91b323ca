/**
 * @file
 * Tests for the shared-memory KVS: table operations, the three access
 * clients, cross-scheme consistency, the multi-VM workload, and the
 * paper's relative-performance claims.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "base/units.hh"
#include "kvs/clients.hh"
#include "kvs/workload.hh"
#include "sim/rng.hh"

namespace
{

using namespace elisa;
using namespace elisa::kvs;

class KvsTableTest : public ::testing::Test
{
  protected:
    KvsTableTest() : memory(16 * MiB), io(memory, 0)
    {
        ShmKvs::format(io, 1024);
    }

    mem::HostMemory memory;
    net::HostRegionIo io;
};

TEST_F(KvsTableTest, FormatAndEmptyLookup)
{
    EXPECT_TRUE(ShmKvs::formatted(io));
    EXPECT_EQ(ShmKvs::size(io), 0u);
    EXPECT_EQ(ShmKvs::bucketCount(io), 1024u);
    EXPECT_FALSE(ShmKvs::get(io, makeKey(1)));
}

TEST_F(KvsTableTest, PutGetRemoveRoundTrip)
{
    EXPECT_TRUE(ShmKvs::put(io, makeKey(1), makeValue(1)));
    EXPECT_EQ(ShmKvs::size(io), 1u);
    auto v = ShmKvs::get(io, makeKey(1));
    ASSERT_TRUE(v);
    EXPECT_EQ(*v, makeValue(1));
    EXPECT_TRUE(ShmKvs::remove(io, makeKey(1)));
    EXPECT_EQ(ShmKvs::size(io), 0u);
    EXPECT_FALSE(ShmKvs::get(io, makeKey(1)));
    EXPECT_FALSE(ShmKvs::remove(io, makeKey(1)));
}

TEST_F(KvsTableTest, UpdateInPlace)
{
    EXPECT_TRUE(ShmKvs::put(io, makeKey(5), makeValue(5)));
    EXPECT_TRUE(ShmKvs::put(io, makeKey(5), makeValue(99)));
    EXPECT_EQ(ShmKvs::size(io), 1u); // update, not insert
    EXPECT_EQ(*ShmKvs::get(io, makeKey(5)), makeValue(99));
}

TEST_F(KvsTableTest, ManyKeysSurvive)
{
    const std::uint64_t n = 2000; // ~24 % slot load factor
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_TRUE(ShmKvs::put(io, makeKey(i), makeValue(i)))
            << "overflow at " << i;
    EXPECT_EQ(ShmKvs::size(io), n);
    for (std::uint64_t i = 0; i < n; ++i) {
        auto v = ShmKvs::get(io, makeKey(i));
        ASSERT_TRUE(v) << i;
        EXPECT_EQ(*v, makeValue(i));
    }
}

TEST_F(KvsTableTest, BucketOverflowReported)
{
    net::HostRegionIo tiny(memory, 8 * MiB);
    ShmKvs::format(tiny, 1); // single bucket, 8 slots
    for (std::uint32_t i = 0; i < entriesPerBucket; ++i)
        EXPECT_TRUE(ShmKvs::put(tiny, makeKey(i), makeValue(i)));
    EXPECT_FALSE(ShmKvs::put(tiny, makeKey(entriesPerBucket),
                             makeValue(entriesPerBucket)));
    // Updates of resident keys still work when full.
    EXPECT_TRUE(ShmKvs::put(tiny, makeKey(2), makeValue(42)));
}

TEST_F(KvsTableTest, CompareAndSwapSemantics)
{
    ASSERT_TRUE(ShmKvs::put(io, makeKey(9), makeValue(1)));
    // Mismatched expectation: no change.
    EXPECT_FALSE(ShmKvs::cas(io, makeKey(9), makeValue(2),
                             makeValue(3)));
    EXPECT_EQ(*ShmKvs::get(io, makeKey(9)), makeValue(1));
    // Matched: swaps.
    EXPECT_TRUE(ShmKvs::cas(io, makeKey(9), makeValue(1),
                            makeValue(3)));
    EXPECT_EQ(*ShmKvs::get(io, makeKey(9)), makeValue(3));
    // Absent key never matches.
    EXPECT_FALSE(ShmKvs::cas(io, makeKey(1234), makeValue(0),
                             makeValue(1)));
}

TEST(KvsKeys, HashIsUniformish)
{
    const std::uint64_t buckets = 128;
    std::vector<std::uint32_t> hist(buckets, 0);
    for (std::uint64_t i = 0; i < 12800; ++i)
        ++hist[hashKey(makeKey(i), buckets)];
    for (auto c : hist) {
        EXPECT_GT(c, 50u);
        EXPECT_LT(c, 200u);
    }
}

/** Full three-scheme fixture. */
class KvsClientTest : public ::testing::Test
{
  protected:
    static constexpr std::uint64_t buckets = 1 << 14;
    static constexpr std::uint64_t keySpace = 1 << 14; // 25 % load

    KvsClientTest()
        : hv(1024 * MiB), svc(hv),
          managerVm(hv.createVm("kvmgr", 64 * MiB)),
          manager(managerVm, svc)
    {
        for (int i = 0; i < 8; ++i) {
            vms.push_back(&hv.createVm("client" + std::to_string(i),
                                       16 * MiB));
        }
    }

    hv::Hypervisor hv;
    core::ElisaService svc;
    hv::Vm &managerVm;
    core::ElisaManager manager;
    std::vector<hv::Vm *> vms;
};

TEST_F(KvsClientTest, DirectClientBasics)
{
    DirectKvsTable table(hv, buckets);
    DirectKvsClient client(table, *vms[0]);
    EXPECT_TRUE(client.put(makeKey(1), makeValue(1)));
    EXPECT_EQ(*client.get(makeKey(1)), makeValue(1));
    EXPECT_TRUE(client.remove(makeKey(1)));
    EXPECT_FALSE(client.get(makeKey(1)));
}

TEST_F(KvsClientTest, ElisaClientBasics)
{
    ElisaKvsTable table(hv, manager, "kv-basic", buckets);
    core::ElisaGuest guest(*vms[0], svc);
    ElisaKvsClient client(table, manager, guest);
    EXPECT_TRUE(client.put(makeKey(1), makeValue(1)));
    EXPECT_EQ(*client.get(makeKey(1)), makeValue(1));
    EXPECT_TRUE(client.remove(makeKey(1)));
    EXPECT_FALSE(client.get(makeKey(1)));
}

TEST_F(KvsClientTest, VmcallClientBasics)
{
    VmcallKvsTable table(hv, buckets);
    VmcallKvsClient client(table, *vms[0]);
    EXPECT_TRUE(client.put(makeKey(1), makeValue(1)));
    EXPECT_EQ(*client.get(makeKey(1)), makeValue(1));
    EXPECT_TRUE(client.remove(makeKey(1)));
    EXPECT_FALSE(client.get(makeKey(1)));
}

TEST_F(KvsClientTest, CasWorksAcrossAllSchemes)
{
    DirectKvsTable dt(hv, buckets);
    ElisaKvsTable et(hv, manager, "kv-cas", buckets);
    VmcallKvsTable vt(hv, buckets);

    DirectKvsClient dc(dt, *vms[0]);
    core::ElisaGuest guest(*vms[1], svc);
    ElisaKvsClient ec(et, manager, guest);
    VmcallKvsClient vc(vt, *vms[2]);

    KvsClient *clients[] = {&dc, &ec, &vc};
    for (KvsClient *c : clients) {
        SCOPED_TRACE(c->scheme());
        ASSERT_TRUE(c->put(makeKey(1), makeValue(10)));
        EXPECT_FALSE(c->cas(makeKey(1), makeValue(99), makeValue(11)));
        EXPECT_EQ(*c->get(makeKey(1)), makeValue(10));
        EXPECT_TRUE(c->cas(makeKey(1), makeValue(10), makeValue(11)));
        EXPECT_EQ(*c->get(makeKey(1)), makeValue(11));
        EXPECT_FALSE(c->cas(makeKey(404), makeValue(0), makeValue(1)));
    }
}

TEST_F(KvsClientTest, CasLosersObserveWinners)
{
    // Two clients race CAS on one key: with the bucket lock, exactly
    // one of a matched pair can win from the same expected value.
    DirectKvsTable dt(hv, buckets);
    DirectKvsClient a(dt, *vms[0]);
    DirectKvsClient b(dt, *vms[1]);
    ASSERT_TRUE(a.put(makeKey(5), makeValue(0)));

    const bool a_won = a.cas(makeKey(5), makeValue(0), makeValue(100));
    const bool b_won = b.cas(makeKey(5), makeValue(0), makeValue(200));
    EXPECT_TRUE(a_won);
    EXPECT_FALSE(b_won); // the value is no longer 0
    EXPECT_EQ(*b.get(makeKey(5)), makeValue(100));
}

TEST_F(KvsClientTest, TwoVmsShareOneElisaTable)
{
    ElisaKvsTable table(hv, manager, "kv-share", buckets);
    core::ElisaGuest ga(*vms[0], svc), gb(*vms[1], svc);
    ElisaKvsClient a(table, manager, ga), b(table, manager, gb);
    EXPECT_TRUE(a.put(makeKey(7), makeValue(7)));
    EXPECT_EQ(*b.get(makeKey(7)), makeValue(7));
    EXPECT_TRUE(b.remove(makeKey(7)));
    EXPECT_FALSE(a.get(makeKey(7)));
}

TEST_F(KvsClientTest, PerOpCostOrdering)
{
    DirectKvsTable dt(hv, buckets);
    prepopulate(dt.hostIo(), 100);
    ElisaKvsTable et(hv, manager, "kv-cost", buckets);
    prepopulate(et.hostIo(), 100);
    VmcallKvsTable vt(hv, buckets);
    prepopulate(vt.hostIo(), 100);

    DirectKvsClient dc(dt, *vms[0]);
    core::ElisaGuest guest(*vms[1], svc);
    ElisaKvsClient ec(et, manager, guest);
    VmcallKvsClient vc(vt, *vms[2]);

    auto cost_of = [](KvsClient &c, auto op) {
        op(c); // warm TLB / gate
        const SimNs t0 = c.vcpu().clock().now();
        op(c);
        return c.vcpu().clock().now() - t0;
    };
    auto do_get = [](KvsClient &c) { ASSERT_TRUE(c.get(makeKey(1))); };

    const SimNs d = cost_of(dc, do_get);
    const SimNs e = cost_of(ec, do_get);
    const SimNs v = cost_of(vc, do_get);
    EXPECT_LT(d, e);
    EXPECT_LT(e, v);
    // The gap between ELISA and VMCALL is the transition difference.
    EXPECT_NEAR((double)(v - e),
                (double)(hv.cost().vmcallRttNs() -
                         hv.cost().elisaRttNs()),
                60.0);
}

TEST_F(KvsClientTest, WorkloadGetScalingAndPaperRatio)
{
    const std::uint64_t ops = 4000;

    // ivshmem clients.
    DirectKvsTable dt(hv, buckets);
    prepopulate(dt.hostIo(), keySpace);
    std::vector<std::unique_ptr<DirectKvsClient>> dcs;
    std::vector<KvsClient *> dptr;
    for (int i = 0; i < 4; ++i) {
        dcs.push_back(std::make_unique<DirectKvsClient>(dt, *vms[i]));
        dptr.push_back(dcs.back().get());
    }
    auto dres = runKvsWorkload(dptr, Mix::GetOnly, keySpace, ops);
    EXPECT_EQ(dres.corrupt, 0u);
    EXPECT_EQ(dres.failed, 0u);
    EXPECT_EQ(dres.ops, 4 * ops);

    // ELISA clients.
    ElisaKvsTable et(hv, manager, "kv-scale", buckets);
    prepopulate(et.hostIo(), keySpace);
    std::vector<std::unique_ptr<core::ElisaGuest>> guests;
    std::vector<std::unique_ptr<ElisaKvsClient>> ecs;
    std::vector<KvsClient *> eptr;
    for (int i = 0; i < 4; ++i) {
        guests.push_back(
            std::make_unique<core::ElisaGuest>(*vms[i], svc));
        ecs.push_back(std::make_unique<ElisaKvsClient>(et, manager,
                                                       *guests.back()));
        eptr.push_back(ecs.back().get());
    }
    auto eres = runKvsWorkload(eptr, Mix::GetOnly, keySpace, ops);
    EXPECT_EQ(eres.corrupt, 0u);
    EXPECT_EQ(eres.failed, 0u);

    // VMCALL clients.
    VmcallKvsTable vt(hv, buckets);
    prepopulate(vt.hostIo(), keySpace);
    std::vector<std::unique_ptr<VmcallKvsClient>> vcs;
    std::vector<KvsClient *> vptr;
    for (int i = 0; i < 4; ++i) {
        vcs.push_back(std::make_unique<VmcallKvsClient>(vt, *vms[i]));
        vptr.push_back(vcs.back().get());
    }
    auto vres = runKvsWorkload(vptr, Mix::GetOnly, keySpace, ops);

    // Ordering + the paper's +64 % GET claim (+-12 %).
    EXPECT_GT(dres.totalMops, eres.totalMops);
    EXPECT_GT(eres.totalMops, vres.totalMops);
    const double gain =
        (eres.totalMops - vres.totalMops) / vres.totalMops * 100.0;
    EXPECT_NEAR(gain, 64.0, 12.0);

    // Near-linear scaling: per-client rates roughly equal.
    for (double r : dres.perClientMops)
        EXPECT_NEAR(r, dres.perClientMops[0],
                    0.15 * dres.perClientMops[0]);
}

TEST_F(KvsClientTest, WorkloadPutRatioMatchesPaper)
{
    const std::uint64_t ops = 4000;

    ElisaKvsTable et(hv, manager, "kv-put", buckets);
    prepopulate(et.hostIo(), keySpace);
    core::ElisaGuest guest(*vms[0], svc);
    ElisaKvsClient ec(et, manager, guest);
    std::vector<KvsClient *> eptr{&ec};
    auto eres = runKvsWorkload(eptr, Mix::PutOnly, keySpace, ops);
    EXPECT_EQ(eres.failed, 0u);

    VmcallKvsTable vt(hv, buckets);
    prepopulate(vt.hostIo(), keySpace);
    VmcallKvsClient vc(vt, *vms[1]);
    std::vector<KvsClient *> vptr{&vc};
    auto vres = runKvsWorkload(vptr, Mix::PutOnly, keySpace, ops);

    const double gain =
        (eres.totalMops - vres.totalMops) / vres.totalMops * 100.0;
    // Paper: +54 % for PUT.
    EXPECT_NEAR(gain, 54.0, 12.0);
}

TEST_F(KvsClientTest, MixedWorkloadStaysConsistent)
{
    DirectKvsTable dt(hv, buckets);
    prepopulate(dt.hostIo(), keySpace);
    std::vector<std::unique_ptr<DirectKvsClient>> dcs;
    std::vector<KvsClient *> dptr;
    for (int i = 0; i < 3; ++i) {
        dcs.push_back(std::make_unique<DirectKvsClient>(dt, *vms[i]));
        dptr.push_back(dcs.back().get());
    }
    auto res = runKvsWorkload(dptr, Mix::Mixed9010, keySpace, 5000);
    EXPECT_EQ(res.corrupt, 0u);
    EXPECT_EQ(res.failed, 0u);
    EXPECT_GT(res.hits, 0u);
}

TEST(KvsDeterminism, IdenticalRunsProduceIdenticalResults)
{
    // The whole stack is deterministic: same seed, same simulated
    // nanosecond outcomes, across completely fresh machines.
    auto run_once = [] {
        hv::Hypervisor hv(512 * MiB);
        core::ElisaService svc(hv);
        hv::Vm &mgr_vm = hv.createVm("m", 64 * MiB);
        core::ElisaManager manager(mgr_vm, svc);
        ElisaKvsTable table(hv, manager, "det", 1 << 14);
        prepopulate(table.hostIo(), 1 << 14);
        hv::Vm &vm_a = hv.createVm("a", 16 * MiB);
        hv::Vm &vm_b = hv.createVm("b", 16 * MiB);
        core::ElisaGuest ga(vm_a, svc), gb(vm_b, svc);
        ElisaKvsClient ca(table, manager, ga), cb(table, manager, gb);
        std::vector<KvsClient *> clients{&ca, &cb};
        auto r = runKvsWorkload(clients, Mix::Mixed9010, 1 << 14,
                                5000, /*seed=*/77);
        return std::make_tuple(r.totalMops, r.hits,
                               vm_a.vcpu(0).clock().now(),
                               vm_b.vcpu(0).clock().now());
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST_F(KvsClientTest, ElisaTableIsolatedFromClients)
{
    ElisaKvsTable table(hv, manager, "kv-iso", buckets);
    core::ElisaGuest guest(*vms[0], svc);
    ElisaKvsClient client(table, manager, guest);
    ASSERT_TRUE(client.put(makeKey(3), makeValue(3)));

    // The table object is unreachable from the client's default
    // context — unlike the ivshmem table, which any VM can scribble on.
    cpu::GuestView v(vms[0]->vcpu(0));
    EXPECT_THROW(v.read<std::uint64_t>(core::objectGpa),
                 cpu::VmExitEvent);
}

TEST_F(KvsClientTest, HostPrefetchIgnoresForgedHeader)
{
    DirectKvsTable dt(hv, buckets);
    VmcallKvsTable vt(hv, buckets);
    ElisaKvsTable et(hv, manager, "kv-forged", buckets);
    DirectKvsClient dc(dt, *vms[0]);
    VmcallKvsClient vc(vt, *vms[1]);
    core::ElisaGuest guest(*vms[2], svc);
    ElisaKvsClient ec(et, manager, guest);

    // The header's magic and bucket count, as a direct-mapped peer can
    // rewrite them. The hint takes the geometry the host formatted the
    // table with, so every prefetched line stays inside the region.
    const std::uint64_t forged[2] = {~0ull, ~0ull};
    for (net::HostRegionIo *io : {&dt.hostIo(), &vt.hostIo(), &et.hostIo()})
        io->write(0, forged, sizeof(forged));

    KvsClient *clients[] = {&dc, &vc, &ec};
    for (KvsClient *c : clients) {
        SCOPED_TRACE(c->scheme());
        const SimNs before = c->vcpu().clock().now();
        const auto counters = c->vcpu().stats().all();
        for (std::uint64_t id = 0; id < 4 * buckets; ++id)
            c->hostPrefetch(makeKey(id));
        // A hint has no simulated effect.
        EXPECT_EQ(c->vcpu().clock().now(), before);
        EXPECT_EQ(c->vcpu().stats().all(), counters);
    }
}

/** The ID a workload key was made from (makeKey). */
std::uint64_t
idOf(const Key &key)
{
    std::uint64_t id;
    std::memcpy(&id, key.data(), sizeof(id));
    return id;
}

/** One operation or host hint, as a client saw it. */
struct ClientEvent
{
    char kind; ///< 'G' GET, 'P' PUT, 'H' hostPrefetch
    std::uint64_t id;
};

/** Forwards to another client and logs what it is asked to do. */
class RecordingClient : public KvsClient
{
  public:
    RecordingClient(KvsClient &inner, unsigned index, std::string &ops)
        : inner(inner), index(index), ops(ops)
    {
    }

    const char *scheme() const override { return inner.scheme(); }
    cpu::Vcpu &vcpu() override { return inner.vcpu(); }

    bool
    put(const Key &key, const Value &value) override
    {
        log('P', key);
        return inner.put(key, value);
    }

    std::optional<Value>
    get(const Key &key) override
    {
        log('G', key);
        return inner.get(key);
    }

    bool remove(const Key &key) override { return inner.remove(key); }

    bool
    cas(const Key &key, const Value &expected,
        const Value &desired) override
    {
        return inner.cas(key, expected, desired);
    }

    void
    hostPrefetch(const Key &key) override
    {
        events.push_back({'H', idOf(key)});
        inner.hostPrefetch(key);
    }

    std::vector<ClientEvent> events;

  private:
    void
    log(char kind, const Key &key)
    {
        events.push_back({kind, idOf(key)});
        ops += std::to_string(index) + kind + std::to_string(idOf(key)) +
               " ";
    }

    KvsClient &inner;
    unsigned index;
    std::string &ops;
};

class KvsWorkload : public KvsClientTest
{
};

TEST_F(KvsWorkload, LookaheadKeepsEachClientsOperations)
{
    DirectKvsTable dt(hv, buckets);
    VmcallKvsTable vt(hv, buckets);
    ElisaKvsTable et(hv, manager, "kv-lookahead", buckets);
    for (net::HostRegionIo *io : {&dt.hostIo(), &vt.hostIo(), &et.hostIo()})
        prepopulate(*io, keySpace);
    DirectKvsClient dc(dt, *vms[0]);
    VmcallKvsClient vc(vt, *vms[1]);
    core::ElisaGuest guest(*vms[2], svc);
    ElisaKvsClient ec(et, manager, guest);

    std::string ops; // "<client><G|P><key id> ", in the order they ran
    RecordingClient rd(dc, 0, ops), rv(vc, 1, ops), re(ec, 2, ops);
    std::vector<RecordingClient *> recorders{&rd, &rv, &re};
    const std::uint64_t n = 16;
    const auto r = runKvsWorkload({&rd, &rv, &re}, Mix::Mixed9010,
                                  keySpace, n, /*seed=*/5);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_EQ(r.corrupt, 0u);

    // The log of a workload that draws each operation as it runs it:
    // drawing one step ahead moves no operation, key or interleaving.
    EXPECT_EQ(ops,
              "0P7846 1G8657 0G4613 0G8143 1G9480 0G3416 0G13326 "
              "1G14852 0G13672 0G12853 1G5277 2G13055 0P2129 0G4561 "
              "2G5866 1G13712 0G6909 2G15924 0P9759 1G1461 2G8396 "
              "0G10295 2G10568 0G635 1G12798 0G15186 2G5596 0G7493 "
              "2G8014 1G7791 0G13168 2G11430 1G3307 2G12592 2G6684 "
              "1G12594 2G14736 2P10414 1G11199 2P14961 1G9005 2G8849 "
              "2G3385 1G3186 2G10482 1P13568 1G11641 1G6647 ");

    for (const RecordingClient *rec : recorders) {
        SCOPED_TRACE(rec->scheme());
        std::vector<std::size_t> opAt, hintAt;
        for (std::size_t i = 0; i < rec->events.size(); ++i)
            (rec->events[i].kind == 'H' ? hintAt : opAt).push_back(i);
        ASSERT_EQ(opAt.size(), n);
        ASSERT_EQ(hintAt.size(), n - 1);
        // Hint j names operation j + 1's key, after operation j - 1
        // ran and before operation j + 1 runs.
        for (std::size_t j = 0; j + 1 < n; ++j) {
            EXPECT_EQ(rec->events[hintAt[j]].id,
                      rec->events[opAt[j + 1]].id);
            EXPECT_LT(hintAt[j], opAt[j + 1]);
            if (j > 0) {
                EXPECT_GT(hintAt[j], opAt[j - 1]);
            }
        }
    }
}

} // namespace
