/**
 * @file
 * Experiment F8 (extension) — how many VMs does each scheme need to
 * saturate one 10 GbE port at 64 B?
 *
 * The paper's motivation: exit costs burn CPU, so host-interposed
 * virtual I/O cannot "fully utilize the potential of high-speed
 * physical I/O devices". This figure quantifies that: aggregate RX
 * throughput over VM count, one shared port. ELISA reaches line rate
 * with a fraction of the vCPUs VMCALL needs.
 */

#include <memory>

#include "bench/common.hh"
#include "net/workloads.hh"

namespace
{

using namespace elisa;
using namespace elisa::bench;

constexpr std::uint64_t packetsPerVm = 40000;
constexpr unsigned maxVms = 12;

} // namespace

namespace elisa::bench
{

void
netMultivm()
{
    TextTable table;
    table.header({"VMs", "ivshmem", "VMCALL", "ELISA", "(Mpps, line "
                                                       "rate 14.2)"});
    double vmcall_at_max = 0, elisa_at_max = 0;
    unsigned elisa_saturated_at = 0;

    for (unsigned n = 1; n <= maxVms; n += (n < 4 ? 1 : 2)) {
        std::vector<double> agg;
        for (int scheme = 0; scheme < 3; ++scheme) {
            Testbed bed(768 * MiB);
            net::PhysNic nic(bed.hv.cost());
            std::vector<std::unique_ptr<hv::Vm *>> dummy;
            std::vector<std::unique_ptr<net::NetPath>> paths;
            std::vector<std::unique_ptr<core::ElisaGuest>> guests;
            std::vector<net::NetPath *> ptrs;
            for (unsigned i = 0; i < n; ++i) {
                hv::Vm &vm = bed.addGuest(
                    "vm" + std::to_string(i), 16 * MiB);
                switch (scheme) {
                  case 0:
                    paths.push_back(std::make_unique<net::DirectPath>(
                        bed.hv, vm));
                    break;
                  case 1:
                    paths.push_back(std::make_unique<net::VmcallPath>(
                        bed.hv, vm));
                    break;
                  case 2:
                    guests.push_back(
                        std::make_unique<core::ElisaGuest>(vm,
                                                           bed.svc));
                    paths.push_back(std::make_unique<net::ElisaPath>(
                        bed.hv, bed.manager, *guests.back(),
                        "nic-q" + std::to_string(i)));
                    break;
                }
                ptrs.push_back(paths.back().get());
            }
            auto r = net::runRxShared(ptrs, nic, 64, packetsPerVm);
            fatal_if(r.corrupt != 0, "corrupt packets");
            agg.push_back(r.mpps());
        }
        table.row({std::to_string(n),
                   detail::format("%.2f", agg[0]),
                   detail::format("%.2f", agg[1]),
                   detail::format("%.2f", agg[2]), ""});
        if (agg[2] >= 14.0 && elisa_saturated_at == 0)
            elisa_saturated_at = n;
        vmcall_at_max = agg[1];
        elisa_at_max = agg[2];
    }
    std::printf("%s\n", table.render().c_str());
    saveCsv(table, "F8_net_multivm");

    paperCheck("ELISA aggregate @12 VMs", elisa_at_max, 14.2, "Mpps");
    std::printf("  ELISA saturates the port with %u VMs; VMCALL needs "
                "12 (%.1f Mpps there) —\n"
                "  the intro's 'exit cost wastes the device' point, "
                "quantified in vCPUs.\n",
                elisa_saturated_at, vmcall_at_max);
}

} // namespace elisa::bench
