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
 * Timing: operations charge the calibrated kvsGetCoreNs / kvsPutCoreNs
 * lumps plus each scheme's transition; bucket write exclusion is
 * arbitrated in simulated time by a striped lock table shared by all
 * clients of one table.
 */

#ifndef ELISA_KVS_CLIENTS_HH
#define ELISA_KVS_CLIENTS_HH

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "elisa/gate.hh"
#include "elisa/guest_api.hh"
#include "elisa/manager.hh"
#include "hv/hypervisor.hh"
#include "hv/ivshmem.hh"
#include "kvs/shm_kvs.hh"
#include "sim/resource.hh"
#include "sim/stats.hh"

namespace elisa::kvs
{

/** Guest GPA of the direct-mapped table window. */
inline constexpr Gpa kvsWindowGpa = 0x520000000000ull;

/** Striped simulated-time locks guarding bucket writes. */
class KvsLockTable
{
  public:
    explicit KvsLockTable(std::size_t stripes = 4096)
        : locks(stripes)
    {
    }

    sim::SimLock &
    forBucket(std::uint64_t bucket)
    {
        return locks[bucket % locks.size()];
    }

    /** Aggregate write-lock wait time (contention diagnostics). */
    SimNs
    totalWait() const
    {
        SimNs total = 0;
        for (const auto &l : locks)
            total += l.totalWait();
        return total;
    }

  private:
    std::vector<sim::SimLock> locks;
};

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

  protected:
    /**
     * Intern the per-operation counters once at construction; per-op
     * code increments by id (no string hashing on the data path).
     */
    void
    internCounters(sim::StatSet &stats)
    {
        kvsStats = &stats;
        getsId = stats.id("kvs_gets");
        putsId = stats.id("kvs_puts");
        removesId = stats.id("kvs_removes");
        casId = stats.id("kvs_cas");
    }

    // Per-op counters; each emits a trace instant when the machine has
    // a tracer installed (one pointer test otherwise).
    void
    countGet(cpu::Vcpu &cpu)
    {
        countOp(cpu, getsId, sim::TraceName::KvsGet);
    }

    void
    countPut(cpu::Vcpu &cpu)
    {
        countOp(cpu, putsId, sim::TraceName::KvsPut);
    }

    void
    countRemove(cpu::Vcpu &cpu)
    {
        countOp(cpu, removesId, sim::TraceName::KvsRemove);
    }

    void
    countCas(cpu::Vcpu &cpu)
    {
        countOp(cpu, casId, sim::TraceName::KvsCas);
    }

  private:
    void
    countOp(cpu::Vcpu &cpu, sim::StatId id, sim::TraceName name)
    {
        kvsStats->inc(id);
        if (sim::Tracer *tr = cpu.tracer())
            tr->instant(sim::SpanCat::Kvs, name, cpu.id(), cpu.clock().now());
    }

    sim::StatSet *kvsStats = nullptr;
    sim::StatId getsId = 0;
    sim::StatId putsId = 0;
    sim::StatId removesId = 0;
    sim::StatId casId = 0;
};

// ---- direct mapping -----------------------------------------------

/**
 * One shared table region, ivshmem-mapped into client VMs on demand.
 */
class DirectKvsTable
{
  public:
    DirectKvsTable(hv::Hypervisor &hv, std::uint64_t bucket_count);
    ~DirectKvsTable();

    /** Map the table into @p vm (idempotent per VM). */
    void ensureAttached(hv::Vm &vm);

    /** Privileged access for prepopulation / verification. */
    net::HostRegionIo &hostIo() { return *host; }

    std::uint64_t buckets() const { return bucketCount; }
    KvsLockTable &lockTable() { return *locks; }

  private:
    hv::Hypervisor &hyper;
    std::uint64_t bucketCount;
    std::unique_ptr<hv::IvshmemRegion> region;
    std::unique_ptr<net::HostRegionIo> host;
    std::shared_ptr<KvsLockTable> locks;
    std::set<VmId> attached;

    friend class DirectKvsClient;
};

/** Client over a direct-mapped table. */
class DirectKvsClient : public KvsClient
{
  public:
    DirectKvsClient(DirectKvsTable &table, hv::Vm &vm,
                    unsigned vcpu_index = 0);

    const char *scheme() const override { return "ivshmem"; }
    cpu::Vcpu &vcpu() override { return guestVm.vcpu(vcpuIndex); }
    bool put(const Key &key, const Value &value) override;
    std::optional<Value> get(const Key &key) override;
    bool remove(const Key &key) override;
    bool cas(const Key &key, const Value &expected,
             const Value &desired) override;

  private:
    DirectKvsTable &table;
    hv::Vm &guestVm;
    unsigned vcpuIndex;
    std::unique_ptr<net::GuestRegionIo> io;
};

// ---- ELISA ------------------------------------------------------------

/**
 * A table exported by the manager VM; clients attach by name.
 */
class ElisaKvsTable
{
  public:
    ElisaKvsTable(hv::Hypervisor &hv, core::ElisaManager &manager,
                  std::string export_name, std::uint64_t bucket_count);

    const std::string &name() const { return exportName; }
    std::uint64_t buckets() const { return bucketCount; }

    /** Privileged access for prepopulation / verification. */
    net::HostRegionIo &hostIo() { return *host; }

  private:
    std::string exportName;
    std::uint64_t bucketCount;
    std::shared_ptr<KvsLockTable> locks;
    std::unique_ptr<net::HostRegionIo> host;
};

/** Client calling through an ELISA gate. */
class ElisaKvsClient : public KvsClient
{
  public:
    /** Exchange-buffer layout of the call ABI. */
    static constexpr std::uint64_t keyOff = 0;
    static constexpr std::uint64_t valueOff = 64;
    static constexpr std::uint64_t desiredOff = 128;

    ElisaKvsClient(ElisaKvsTable &table, core::ElisaManager &manager,
                   core::ElisaGuest &guest);

    const char *scheme() const override { return "ELISA"; }
    cpu::Vcpu &vcpu() override;
    bool put(const Key &key, const Value &value) override;
    std::optional<Value> get(const Key &key) override;
    bool remove(const Key &key) override;
    bool cas(const Key &key, const Value &expected,
             const Value &desired) override;

  private:
    core::ElisaGuest &guestRt;
    core::Gate gate;
};

// ---- host interposition (VMCALL) ------------------------------------

/**
 * A host-private table; every operation is a hypercall.
 */
class VmcallKvsTable
{
  public:
    VmcallKvsTable(hv::Hypervisor &hv, std::uint64_t bucket_count);
    ~VmcallKvsTable();

    std::uint64_t buckets() const { return bucketCount; }
    net::HostRegionIo &hostIo() { return *host; }

    std::uint64_t getNr() const { return hcGet; }
    std::uint64_t putNr() const { return hcPut; }
    std::uint64_t removeNr() const { return hcRemove; }
    std::uint64_t casNr() const { return hcCas; }

  private:
    hv::Hypervisor &hyper;
    std::uint64_t bucketCount;
    Hpa base;
    std::uint64_t pages;
    std::shared_ptr<KvsLockTable> locks;
    std::unique_ptr<net::HostRegionIo> host;
    std::uint64_t hcGet, hcPut, hcRemove, hcCas;
};

/** Client issuing one VMCALL per operation. */
class VmcallKvsClient : public KvsClient
{
  public:
    VmcallKvsClient(VmcallKvsTable &table, hv::Vm &vm,
                    unsigned vcpu_index = 0);

    const char *scheme() const override { return "VMCALL"; }
    cpu::Vcpu &vcpu() override { return guestVm.vcpu(vcpuIndex); }
    bool put(const Key &key, const Value &value) override;
    std::optional<Value> get(const Key &key) override;
    bool remove(const Key &key) override;
    bool cas(const Key &key, const Value &expected,
             const Value &desired) override;

  private:
    VmcallKvsTable &table;
    hv::Vm &guestVm;
    unsigned vcpuIndex;
    Gpa bufGpa; ///< guest buffer for key/value marshalling
};

/** Prepopulate keys [0, count) with their canonical values. */
void prepopulate(net::RegionIo &host_io, std::uint64_t count);

} // namespace elisa::kvs

#endif // ELISA_KVS_CLIENTS_HH
