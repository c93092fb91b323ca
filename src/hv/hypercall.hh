/**
 * @file
 * Hypercall numbering and handler plumbing.
 *
 * The hypervisor exposes a dispatch table keyed by hypercall number.
 * Core numbers live in the Hc enum below; subsystems (ELISA negotiation,
 * host-interposition services for the KVS and networking baselines)
 * register their own handlers in dedicated ranges.
 */

#ifndef ELISA_HV_HYPERCALL_HH
#define ELISA_HV_HYPERCALL_HH

#include <cstdint>
#include <functional>

#include "cpu/vcpu.hh"

namespace elisa::hv
{

/** Well-known hypercall numbers. */
enum class Hc : std::uint64_t
{
    /** No-op: measures the naked VMCALL round trip. */
    Nop = 0,

    /** Returns the calling VM's id. */
    GetVmId = 1,

    /** First number of the ELISA negotiation range. */
    ElisaBase = 0x100,

    /** First number of the host-interposition service range. */
    ServiceBase = 0x200,
};

/** Returned by handlers / hypercalls to signal failure. */
inline constexpr std::uint64_t hcError = ~std::uint64_t{0};

/**
 * Returned by handlers whose request queue is full: the call was
 * *refused*, not failed — the caller should back off and retry.
 */
inline constexpr std::uint64_t hcBusy = ~std::uint64_t{0} - 1;

/** A host-side hypercall handler. */
using HypercallHandler =
    std::function<std::uint64_t(cpu::Vcpu &, const cpu::HypercallArgs &)>;

/** Convenience: build HypercallArgs. */
inline cpu::HypercallArgs
hcArgs(Hc nr, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
       std::uint64_t a2 = 0, std::uint64_t a3 = 0)
{
    return cpu::HypercallArgs{static_cast<std::uint64_t>(nr), a0, a1, a2,
                              a3};
}

} // namespace elisa::hv

#endif // ELISA_HV_HYPERCALL_HH
