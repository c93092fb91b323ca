#include "kvs/clients.hh"

#include <memory>
#include <vector>

#include "base/logging.hh"
#include "sim/resource.hh"

namespace elisa::kvs
{

namespace
{

/** Guest GPA of the direct-mapped table window. */
constexpr Gpa kvsWindowGpa = 0x520000000000ull;

/** Striped simulated-time locks guarding bucket writes. */
constexpr std::size_t lockStripes = 4096;

/**
 * The ShmKvs operations on a table of @p buckets buckets: GET, PUT,
 * remove, CAS. Writes hold their bucket's lock from one set of striped
 * locks the table's ops share.
 */
StoreOps
shmKvsOps(std::uint64_t buckets)
{
    using Write = bool (*)(RegionIo &, std::uint64_t, OpArgs &);
    auto locks = std::make_shared<std::vector<sim::SimLock>>(lockStripes);
    // A write holds its bucket's lock across the put-cost lump. A
    // region whose header lost its magic fails it before the lock.
    auto locked = [locks, buckets](Write write) {
        return [locks, buckets, write](cpu::Vcpu &cpu, RegionIo &io,
                                       OpArgs &a) {
            if (!ShmKvs::formatted(io))
                return false;
            sim::SimLock &lock =
                (*locks)[hashKey(a.key, buckets) % locks->size()];
            lock.acquire(cpu.clock());
            cpu.clock().advance(cpu.costModel().kvsPutCoreNs);
            const bool ok = write(io, buckets, a);
            lock.release(cpu.clock());
            return ok;
        };
    };
    return {
        {0, true,
         [buckets](cpu::Vcpu &cpu, RegionIo &io, OpArgs &a) {
             cpu.clock().advance(cpu.costModel().kvsGetCoreNs);
             auto value = ShmKvs::get(io, buckets, a.key);
             if (value)
                 a.value = *value;
             return value.has_value();
         }},
        {1, false,
         locked([](RegionIo &io, std::uint64_t n, OpArgs &a) {
             return ShmKvs::put(io, n, a.key, a.value);
         })},
        {0, false,
         locked([](RegionIo &io, std::uint64_t n, OpArgs &a) {
             return ShmKvs::remove(io, n, a.key);
         })},
        {2, false,
         locked([](RegionIo &io, std::uint64_t n, OpArgs &a) {
             return ShmKvs::cas(io, n, a.key, a.value, a.desired);
         })},
    };
}

} // anonymous namespace

void
prepopulate(net::RegionIo &host_io, std::uint64_t count)
{
    const std::uint64_t buckets = ShmKvs::bucketCount(host_io);
    for (std::uint64_t id = 0; id < count; ++id) {
        const bool ok =
            ShmKvs::put(host_io, buckets, makeKey(id), makeValue(id));
        fatal_if(!ok,
                 "prepopulation overflowed a bucket at key %llu "
                 "(raise the bucket count)",
                 (unsigned long long)id);
    }
}

// ---- the flat tables and their clients ---------------------------------

KvsTable::KvsTable(hv::Hypervisor &hv, Scheme scheme,
                   const std::string &name, std::uint64_t bucket_count,
                   core::ElisaManager *manager, Gpa window)
    : Store(hv, scheme, name, ShmKvs::regionBytesFor(bucket_count),
            shmKvsOps(bucket_count), manager, window),
      bucketCount(bucket_count)
{
    ShmKvs::format(hostIo(), bucket_count);
}

TableClient::TableClient(KvsTable &table, StoreClient &&store_client)
    : client(std::move(store_client)), host(table.hostIo()),
      buckets(table.buckets()), stats(client.vcpu().stats())
{
    static constexpr const char *names[] = {"kvs_gets", "kvs_puts",
                                            "kvs_removes", "kvs_cas"};
    for (unsigned op = 0; op < opStats.size(); ++op)
        opStats[op] = stats.id(names[op]);
}

const char *
TableClient::scheme() const
{
    return schemeName(client.store().scheme());
}

void
TableClient::count(unsigned op)
{
    static constexpr sim::TraceName traces[] = {
        sim::TraceName::KvsGet, sim::TraceName::KvsPut,
        sim::TraceName::KvsRemove, sim::TraceName::KvsCas};
    stats.inc(opStats[op]);
    cpu::Vcpu &cpu = vcpu();
    if (sim::Tracer *tr = cpu.tracer())
        tr->instant(sim::SpanCat::Kvs, traces[op], cpu.id(), cpu.clock().now());
}

std::optional<Value>
TableClient::get(const Key &key)
{
    count(opGet);
    return client.get(key);
}

bool
TableClient::put(const Key &key, const Value &value)
{
    count(opPut);
    return client.put(key, value);
}

bool
TableClient::remove(const Key &key)
{
    count(opRemove);
    return client.remove(key);
}

bool
TableClient::cas(const Key &key, const Value &expected,
                 const Value &desired)
{
    count(opCas);
    return client.cas(key, expected, desired);
}

void
TableClient::hostPrefetch(const Key &key)
{
    ShmKvs::prefetchBucket(host, buckets, key);
}

DirectKvsTable::DirectKvsTable(hv::Hypervisor &hv,
                               std::uint64_t bucket_count)
    : KvsTable(hv, Scheme::Direct, "kvs-table", bucket_count, nullptr,
               kvsWindowGpa)
{
}

DirectKvsClient::DirectKvsClient(DirectKvsTable &table, hv::Vm &vm,
                                 unsigned vcpu_index)
    : TableClient(table, StoreClient(table, vm, vcpu_index))
{
}

ElisaKvsTable::ElisaKvsTable(hv::Hypervisor &hv,
                             core::ElisaManager &manager,
                             std::string export_name,
                             std::uint64_t bucket_count)
    : KvsTable(hv, Scheme::Elisa, export_name, bucket_count, &manager)
{
}

ElisaKvsClient::ElisaKvsClient(ElisaKvsTable &table,
                               core::ElisaManager &manager,
                               core::ElisaGuest &guest)
    : TableClient(table, StoreClient(table, manager, guest))
{
}

VmcallKvsTable::VmcallKvsTable(hv::Hypervisor &hv,
                               std::uint64_t bucket_count)
    : KvsTable(hv, Scheme::Vmcall, "kvs-table", bucket_count)
{
}

VmcallKvsClient::VmcallKvsClient(VmcallKvsTable &table, hv::Vm &vm,
                                 unsigned vcpu_index)
    : TableClient(table,
                  StoreClient(table, vm, vcpu_index, operandBuffer(vm)))
{
}

} // namespace elisa::kvs
