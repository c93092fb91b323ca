/**
 * @file
 * Fundamental type aliases shared by every subsystem of the simulator.
 *
 * The address-space vocabulary follows the Intel SDM:
 *  - a *guest physical address* (Gpa) is what guest software emits after
 *    its own paging (we do not model guest-virtual paging, see DESIGN.md);
 *  - a *host physical address* (Hpa) is the output of the EPT translation
 *    and indexes the simulated machine memory (mem::HostMemory).
 */

#ifndef ELISA_BASE_TYPES_HH
#define ELISA_BASE_TYPES_HH

#include <cstddef>
#include <cstdint>

namespace elisa
{

/** Guest physical address (input of the EPT translation). */
using Gpa = std::uint64_t;

/** Host physical address (output of the EPT translation). */
using Hpa = std::uint64_t;

/** Simulated time, in nanoseconds. */
using SimNs = std::uint64_t;

/** Identifier of a virtual machine registered with the hypervisor. */
using VmId = std::uint32_t;

/** Identifier of a vCPU within the whole machine. */
using VcpuId = std::uint32_t;

/** Index into a per-vCPU EPTP list (0..511). */
using EptpIndex = std::uint16_t;

/**
 * Identifier of a capability grant in the hypervisor's grant table
 * (hv::GrantTable). Ids are minted once and never reused, so a stale
 * handle can always be told apart from a live one.
 */
using CapId = std::uint64_t;

/** An invalid capability id, used as a sentinel ("no grant"). */
inline constexpr CapId invalidCapId = 0;

/** Width of a page in bytes (only 4 KiB pages are modelled). */
inline constexpr std::uint64_t pageSize = 4096;

/** log2(pageSize). */
inline constexpr unsigned pageShift = 12;

/** Mask selecting the offset-in-page bits of an address. */
inline constexpr std::uint64_t pageMask = pageSize - 1;

/** An invalid VM id, used as a sentinel. */
inline constexpr VmId invalidVmId = ~VmId{0};

/** Round @p addr down to its page base. */
constexpr std::uint64_t
pageAlignDown(std::uint64_t addr)
{
    return addr & ~pageMask;
}

/** Round @p addr up to the next page boundary. */
constexpr std::uint64_t
pageAlignUp(std::uint64_t addr)
{
    return (addr + pageMask) & ~pageMask;
}

/** True if @p addr sits exactly on a page boundary. */
constexpr bool
isPageAligned(std::uint64_t addr)
{
    return (addr & pageMask) == 0;
}

} // namespace elisa

#endif // ELISA_BASE_TYPES_HH
