/**
 * @file
 * ElisaManager: the guest-side runtime of a manager VM.
 *
 * The manager VM owns shared objects. It allocates them from its own
 * RAM (keeping direct access through its default context), exports them
 * to the hypervisor's ELISA service, and answers attach requests from
 * other guests — all through ordinary hypercalls (the slow path).
 */

#ifndef ELISA_ELISA_MANAGER_HH
#define ELISA_ELISA_MANAGER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "elisa/abi.hh"
#include "elisa/negotiation.hh"
#include "hv/vm.hh"

namespace elisa::core
{

/**
 * Manager-VM runtime. One instance per manager VM (vCPU 0 by default).
 */
class ElisaManager
{
  public:
    /** Decide whether @p guest_vm may attach to export @p name. */
    using Approver =
        std::function<bool(VmId guest_vm, const std::string &name)>;

    /**
     * Registers @p vm as a manager with the service.
     * @param vm the manager VM (must outlive this object).
     * @param service the host-side ELISA service.
     * @param vcpu_index which vCPU runs the manager loop.
     */
    ElisaManager(hv::Vm &vm, ElisaService &service,
                 unsigned vcpu_index = 0);

    /**
     * Allocate a shared object from the manager's RAM and export it.
     *
     * @param key lookup key guests present to attach.
     * @param bytes object size, rounded up to pages.
     * @param fns the function table clients may invoke.
     * @param perms client permissions on the object window.
     * @return the export id, its key, plus the object's GPA in the
     *         *manager's* address space, or nullopt on error.
     */
    struct Exported
    {
        ExportId id;
        ExportKey key;
        Gpa objectGpa;
        std::uint64_t bytes;
    };
    std::optional<Exported> exportObject(
        const ExportKey &key, std::uint64_t bytes, SharedFnTable fns,
        ept::Perms perms = ept::Perms::RW);

    /** Set the attach-approval policy (default: approve everyone). */
    void setApprover(Approver approver);

    /**
     * Fine-grained policy: decide per request whether to approve and
     * with which object-window permissions (nullopt = deny; the
     * grant may only narrow the export's permissions). Takes
     * precedence over setApprover().
     */
    using PermsPolicy = std::function<std::optional<ept::Perms>(
        VmId guest_vm, const std::string &name)>;
    void setPermsPolicy(PermsPolicy policy);

    /**
     * Drain the pending request queue, approving or denying each
     * request per the policy.
     * @return number of requests processed.
     */
    unsigned pollRequests();

    /**
     * Revoke one of this manager's exports (slow path): every
     * client's attachment is torn down immediately; their next
     * gate call faults on the cleared EPTP-list entry.
     * @return false when the export is unknown or not ours.
     */
    bool revoke(ExportId id);

    /** A view of the manager's memory (to initialize objects). */
    cpu::GuestView view();

    /** The manager's vCPU (clock inspection in benches). */
    cpu::Vcpu &vcpu();

    /** The underlying VM. */
    hv::Vm &vm() { return guestVm; }

  private:
    hv::Vm &guestVm;
    ElisaService &svc;
    unsigned vcpuIndex;
    /** Guest scratch page for hypercall message buffers. */
    Gpa scratchGpa = 0;
    Approver approver;
    PermsPolicy permsPolicy;
};

} // namespace elisa::core

#endif // ELISA_ELISA_MANAGER_HH
