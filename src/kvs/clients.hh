/**
 * @file
 * KVS access clients for the three in-memory sharing schemes of the
 * paper's second use case:
 *
 *   DirectKvsClient   the table region is ivshmem-mapped into every
 *                     client VM (fast, unisolated);
 *   ElisaKvsClient    the table lives in a manager VM's export; GET /
 *                     PUT run in the sub EPT context behind a gate
 *                     call, keys/values cross via the exchange buffer;
 *   VmcallKvsClient   the table is host-private; every operation is a
 *                     VMCALL served by the hypervisor.
 *
 * Each table is a ShmKvs region in a kvs::Store; each client is a
 * StoreClient (store.hh). Timing: operations charge the calibrated
 * kvsGetCoreNs / kvsPutCoreNs lumps plus each scheme's transition;
 * bucket write exclusion is arbitrated in simulated time by a striped
 * lock table shared by all clients of one table.
 */

#ifndef ELISA_KVS_CLIENTS_HH
#define ELISA_KVS_CLIENTS_HH

#include <array>
#include <optional>
#include <string>

#include "kvs/store.hh"
#include "sim/stats.hh"

namespace elisa::kvs
{

/** Client interface (one per VM in the scaling experiments). */
class KvsClient
{
  public:
    virtual ~KvsClient() = default;

    /** Scheme name as it appears in the figures. */
    virtual const char *scheme() const = 0;

    /** The vCPU whose clock pays for the operations. */
    virtual cpu::Vcpu &vcpu() = 0;

    /** Insert or update; false when the bucket overflows. */
    virtual bool put(const Key &key, const Value &value) = 0;

    /** Look up. */
    virtual std::optional<Value> get(const Key &key) = 0;

    /** Delete; false when absent. */
    virtual bool remove(const Key &key) = 0;

    /** Compare-and-swap; false when absent or mismatched. */
    virtual bool cas(const Key &key, const Value &expected,
                     const Value &desired) = 0;

    /**
     * Host-side hint that @p key is the key of this client's next
     * operation, so the host can start loading what it will read. It
     * has no simulated effect: no time, counter or trace event. The
     * default does nothing.
     */
    virtual void hostPrefetch(const Key &) {}
};

/**
 * A ShmKvs table placed for one scheme. The host keeps the bucket count
 * it formatted the table with; the region header's copy is bytes that
 * a direct-mapped peer can rewrite.
 */
class KvsTable : public Store
{
  public:
    /** Buckets the table was formatted with. */
    std::uint64_t buckets() const { return bucketCount; }

  protected:
    KvsTable(hv::Hypervisor &hv, Scheme scheme, const std::string &name,
             std::uint64_t bucket_count,
             core::ElisaManager *manager = nullptr, Gpa window = 0);

  private:
    std::uint64_t bucketCount;
};

/** A flat table's client under any scheme. */
class TableClient : public KvsClient
{
  public:
    const char *scheme() const override;
    cpu::Vcpu &vcpu() override { return client.vcpu(); }
    bool put(const Key &key, const Value &value) override;
    std::optional<Value> get(const Key &key) override;
    bool remove(const Key &key) override;
    bool cas(const Key &key, const Value &expected,
             const Value &desired) override;

    /** Prefetch the first slot of @p key's bucket into the host cache. */
    void hostPrefetch(const Key &key) override;

  protected:
    TableClient(KvsTable &table, StoreClient &&store_client);

  private:
    /** Count op @p op; a trace instant too when the machine has a
     *  tracer installed (one pointer test otherwise). */
    void count(unsigned op);

    StoreClient client;
    const net::HostRegionIo &host;
    std::uint64_t buckets; ///< the table's, as the host holds it
    sim::StatSet &stats;
    std::array<sim::StatId, 4> opStats; ///< interned once, by StoreOpId
};

/** One shared table region, ivshmem-mapped into client VMs on demand. */
class DirectKvsTable : public KvsTable
{
  public:
    DirectKvsTable(hv::Hypervisor &hv, std::uint64_t bucket_count);
};

/** Client over a direct-mapped table. */
class DirectKvsClient : public TableClient
{
  public:
    DirectKvsClient(DirectKvsTable &table, hv::Vm &vm,
                    unsigned vcpu_index = 0);
};

/** A table exported by the manager VM; clients attach by name. */
class ElisaKvsTable : public KvsTable
{
  public:
    ElisaKvsTable(hv::Hypervisor &hv, core::ElisaManager &manager,
                  std::string export_name, std::uint64_t bucket_count);
};

/** Client calling through an ELISA gate. */
class ElisaKvsClient : public TableClient
{
  public:
    ElisaKvsClient(ElisaKvsTable &table, core::ElisaManager &manager,
                   core::ElisaGuest &guest);
};

/** A host-private table; every operation is a hypercall. */
class VmcallKvsTable : public KvsTable
{
  public:
    VmcallKvsTable(hv::Hypervisor &hv, std::uint64_t bucket_count);
};

/** Client issuing one VMCALL per operation. */
class VmcallKvsClient : public TableClient
{
  public:
    VmcallKvsClient(VmcallKvsTable &table, hv::Vm &vm,
                    unsigned vcpu_index = 0);
};

/** Prepopulate keys [0, count) with their canonical values. */
void prepopulate(net::RegionIo &host_io, std::uint64_t count);

} // namespace elisa::kvs

#endif // ELISA_KVS_CLIENTS_HH
