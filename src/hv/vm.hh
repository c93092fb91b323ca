/**
 * @file
 * A guest virtual machine: RAM, default EPT context, vCPUs.
 */

#ifndef ELISA_HV_VM_HH
#define ELISA_HV_VM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/types.hh"
#include "cpu/exit.hh"
#include "cpu/guest_view.hh"
#include "cpu/vcpu.hh"
#include "ept/ept.hh"

namespace elisa::hv
{

class Hypervisor;

/** Copyable description of a faulting VM exit. */
struct ExitInfo
{
    cpu::ExitReason reason = cpu::ExitReason::Hlt;
    std::uint64_t qualification = 0;
    ept::EptViolation violation;
};

/** Result of running a slice of guest code. */
struct GuestRunResult
{
    /** True when the code ran to completion without a faulting exit. */
    bool ok = true;

    /** Populated when ok is false. */
    ExitInfo exit;
};

/**
 * One guest VM. Created via Hypervisor::createVm().
 */
class Vm
{
  public:
    /**
     * @param hv owning hypervisor.
     * @param id VM id.
     * @param name human-readable name.
     * @param ram_bytes guest RAM size (page multiple).
     * @param vcpu_count number of vCPUs.
     */
    Vm(Hypervisor &hv, VmId id, std::string name, std::uint64_t ram_bytes,
       unsigned vcpu_count);

    ~Vm();

    Vm(const Vm &) = delete;
    Vm &operator=(const Vm &) = delete;

    /** VM id. */
    VmId id() const { return vmId; }

    /** VM name. */
    const std::string &name() const { return vmName; }

    /** Guest RAM size in bytes. */
    std::uint64_t ramBytes() const { return ramSize; }

    /** The VM's default EPT context. */
    ept::Ept &defaultEpt() { return *defaultContext; }
    const ept::Ept &defaultEpt() const { return *defaultContext; }

    /** Number of vCPUs. */
    unsigned vcpuCount() const
    {
        return static_cast<unsigned>(vcpus.size());
    }

    /** Access vCPU @p index. */
    cpu::Vcpu &vcpu(unsigned index = 0);

    /**
     * Allocate @p bytes of guest physical address space from this VM's
     * RAM (bump allocation). The returned region is already mapped
     * RW(X) in the default context. Guest RAM is 2 MiB-aligned in
     * host-physical space, so a 2 MiB-aligned GPA here is also 2 MiB
     * aligned physically — eligible for large-page EPT mappings.
     *
     * @param align GPA alignment (power of two, >= pageSize).
     * @return base GPA, or nullopt when RAM is exhausted.
     */
    std::optional<Gpa> allocGuestMem(std::uint64_t bytes,
                                     std::uint64_t align = pageSize);

    /**
     * Host-physical address backing guest RAM @p gpa (privileged;
     * tests and host-interposition handlers use this).
     */
    Hpa ramGpaToHpa(Gpa gpa) const;

    /**
     * Run @p guest_code on vCPU @p vcpu_index, converting any faulting
     * VM exit (EPT violation, bad VMFUNC) into a GuestRunResult. After
     * a faulting exit the vCPU is restored to its default EPT context,
     * as the hypervisor's fault policy would do before any fix-up.
     */
    GuestRunResult run(unsigned vcpu_index,
                       const std::function<void()> &guest_code);

    /** The owning hypervisor. */
    Hypervisor &hypervisor() { return hyper; }

  private:
    Hypervisor &hyper;
    VmId vmId;
    std::string vmName;
    std::uint64_t ramSize;
    Hpa ramBase = 0;
    std::uint64_t ramBump = 0;
    std::unique_ptr<ept::Ept> defaultContext;
    std::vector<std::unique_ptr<cpu::Vcpu>> vcpus;
};

} // namespace elisa::hv

#endif // ELISA_HV_VM_HH
