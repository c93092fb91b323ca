/**
 * @file
 * Shared driver for the VM networking figures (F3 RX / F4 TX /
 * F5 VM-to-VM): builds the five datapaths and prints the Mpps series
 * over the paper's packet-size axis.
 */

#ifndef ELISA_BENCH_NET_COMMON_HH
#define ELISA_BENCH_NET_COMMON_HH

#include <array>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench/common.hh"
#include "net/workloads.hh"

namespace elisa::bench
{

/** The paper's packet-size axis. */
inline constexpr std::uint32_t netSizes[] = {64,  128,  256,
                                             512, 1024, 1472};

/** Packets per figure point. */
inline constexpr std::uint64_t netPackets = 60000;

/** The five schemes on one guest VM. */
struct PathSet
{
    PathSet(Testbed &bed, hv::Vm &vm, core::ElisaGuest &guest,
            const std::string &tag)
        : sriov(bed.hv, vm), direct(bed.hv, vm),
          elisa(bed.hv, bed.manager, guest, "nic-" + tag),
          vmcall(bed.hv, vm), vhost(bed.hv, vm)
    {
    }

    std::vector<net::NetPath *>
    all()
    {
        return {&sriov, &direct, &elisa, &vmcall, &vhost};
    }

    net::SriovPath sriov;
    net::DirectPath direct;
    net::ElisaPath elisa;
    net::VmcallPath vmcall;
    net::VhostPath vhost;
};

/**
 * Print one figure: rows = packet sizes, columns = schemes.
 * @param run (path, size) -> Mpps for one point.
 * @return (elisa, vmcall, direct) Mpps at 64 B for the check lines.
 */
inline std::array<double, 3>
printNetFigure(PathSet &paths,
               const std::function<double(net::NetPath &,
                                          std::uint32_t)> &run,
               const char *exp_id)
{
    TextTable table;
    table.header({"Size [B]", "ivshmem", "VMCALL", "ELISA",
                  "vhost-net", "SR-IOV", "(Mpps)"});
    std::array<double, 3> at64{};
    for (std::uint32_t size : netSizes) {
        const double m_direct = run(paths.direct, size);
        const double m_vmcall = run(paths.vmcall, size);
        const double m_elisa = run(paths.elisa, size);
        const double m_vhost = run(paths.vhost, size);
        const double m_sriov = run(paths.sriov, size);
        table.row({std::to_string(size),
                   detail::format("%.2f", m_direct),
                   detail::format("%.2f", m_vmcall),
                   detail::format("%.2f", m_elisa),
                   detail::format("%.2f", m_vhost),
                   detail::format("%.2f", m_sriov), ""});
        if (size == 64)
            at64 = {m_elisa, m_vmcall, m_direct};
    }
    std::printf("%s\n", table.render().c_str());
    saveCsv(table, exp_id);
    return at64;
}

} // namespace elisa::bench

#endif // ELISA_BENCH_NET_COMMON_HH
