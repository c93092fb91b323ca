/**
 * @file
 * One store, reached the paper's three ways.
 *
 * A store is a region of simulated memory holding a table (ShmKvs for
 * the flat KVS, LogKvs for the cluster's nodes) plus that table's
 * operations, each written once as a StoreOp. A Store places the
 * region and wires the operations for one scheme; a StoreClient is a
 * vCPU's side of it:
 *
 *   Direct  an ivshmem region mapped into client VMs; a client runs
 *           the operation itself, through its own guest view.
 *   Vmcall  host-private frames and one service number per
 *           operation; a client marshals the operands into a guest
 *           buffer and the handler runs the operation host-side.
 *   Elisa   a manager VM's export whose shared functions are the
 *           operations; a client marshals through its exchange buffer
 *           and the operation runs in the sub EPT context behind a
 *           gate call.
 *
 * The Vmcall and Elisa operand buffers share one layout: the key at 0,
 * the value at 64 and a CAS's desired value at 128; a GET's value
 * comes back at 64.
 */

#ifndef ELISA_KVS_STORE_HH
#define ELISA_KVS_STORE_HH

#include <cstdint>
#include <functional>
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

namespace elisa::kvs
{

/** How a store's clients reach it (the paper's three schemes). */
enum class Scheme
{
    Elisa,  ///< gate calls into a manager-VM export (exit-less)
    Vmcall, ///< one hypercall per operation, host-private store
    Direct, ///< ivshmem-mapped store, no transition at all
};

/** Render a scheme as it appears in the figures. */
const char *schemeName(Scheme scheme);

/** One operation's operands, and a GET's result. */
struct OpArgs
{
    Key key{};
    Value value{};   ///< PUT value, CAS expected value, GET result
    Value desired{}; ///< CAS desired value
};

/** One store operation: the same body under every scheme. */
struct StoreOp
{
    /** Values passed after the key: 0, 1 (PUT) or 2 (CAS). */
    unsigned valuesIn;

    /** On success the operation leaves its result in OpArgs::value. */
    bool valueOut;

    /** Run on @p cpu's clock against the table bytes seen through @p io. */
    std::function<bool(cpu::Vcpu &cpu, RegionIo &io, OpArgs &args)> run;
};

/** A table's operations, in StoreOpId order. */
using StoreOps = std::vector<StoreOp>;

/** Operation numbers: ELISA function ids and VMCALL service order. */
enum StoreOpId : unsigned
{
    opGet,
    opPut,
    opRemove,
    opCas,
};

/** Allocate a page of @p vm's RAM for marshalling Vmcall operands. */
Gpa operandBuffer(hv::Vm &vm);

/** A table region and its operations, placed for one scheme. */
class Store
{
  public:
    /**
     * Place a @p bytes region (page-aligned up) for @p scheme and wire
     * @p ops to it: Direct names an ivshmem region @p name that
     * clients map at @p window; Vmcall allocates host frames and one
     * service number per op; Elisa has @p manager export the region as
     * @p name with the ops as its shared functions.
     */
    Store(hv::Hypervisor &hv, Scheme scheme, const std::string &name,
          std::uint64_t bytes, StoreOps ops,
          core::ElisaManager *manager = nullptr, Gpa window = 0);
    ~Store();

    Store(const Store &) = delete;
    Store &operator=(const Store &) = delete;

    Scheme scheme() const { return kind; }
    const std::string &name() const { return storeName; }

    /** Privileged access for formatting, prepopulation, verification. */
    net::HostRegionIo &hostIo() { return *host; }

  private:
    friend class StoreClient;

    hv::Hypervisor &hyper;
    Scheme kind;
    std::string storeName;
    StoreOps ops;
    std::unique_ptr<net::HostRegionIo> host;

    // Direct: the region and the VMs it is mapped into.
    std::unique_ptr<hv::IvshmemRegion> region;
    Gpa window = 0;
    std::set<VmId> attached;

    // Vmcall: the host frames and the per-op service numbers.
    Hpa frames = 0;
    std::uint64_t pages = 0;
    std::vector<std::uint64_t> serviceNrs;
};

/** One vCPU's side of a Store. */
class StoreClient
{
  public:
    /**
     * Direct: map @p store into @p vm (once per VM) and reach it
     * through vCPU @p vcpu_index's own view. Vmcall: that vCPU
     * marshals operands through the page at @p buf.
     */
    StoreClient(Store &store, hv::Vm &vm, unsigned vcpu_index,
                Gpa buf = 0);

    /** Elisa: attach @p guest to @p store, exported by @p manager. */
    StoreClient(Store &store, core::ElisaManager &manager,
                core::ElisaGuest &guest);

    Store &store() const { return target; }
    cpu::Vcpu &vcpu() const { return cpu; }

    // The operations, as the table implements them (a log store has
    // no CAS).
    std::optional<Value> get(const Key &key);
    bool put(const Key &key, const Value &value);
    bool remove(const Key &key);
    bool cas(const Key &key, const Value &expected, const Value &desired);

  private:
    /** Run op @p op with @p args; a GET's value returns in @p args. */
    bool call(unsigned op, OpArgs &args);

    Store &target;
    cpu::Vcpu &cpu;
    std::unique_ptr<net::GuestRegionIo> view; ///< Direct
    Gpa buf = 0;                              ///< Vmcall
    core::Gate gate;                          ///< Elisa
};

} // namespace elisa::kvs

#endif // ELISA_KVS_STORE_HH
