/**
 * @file
 * Experiment F5 — VM-to-VM throughput vs packet size. Software paths
 * cross the virtual switch memory-to-memory (no line-rate ceiling);
 * SR-IOV must hairpin through the NIC's hardware switch and stays
 * wire-bound, which is why direct-mapped software paths overtake it
 * at large packet sizes in the paper's figure.
 */

#include "bench/net_common.hh"

namespace elisa::bench
{

void
netVm2vm()
{
    Testbed bed(2 * GiB);
    hv::Vm &vm_a = bed.addGuest("vm-a", 64 * MiB);
    hv::Vm &vm_b = bed.addGuest("vm-b", 64 * MiB);
    core::ElisaGuest guest_a(vm_a, bed.svc);
    core::ElisaGuest guest_b(vm_b, bed.svc);
    PathSet tx_paths(bed, vm_a, guest_a, "a");
    PathSet rx_paths(bed, vm_b, guest_b, "b");
    net::PhysNic nic(bed.hv.cost());

    auto tx_all = tx_paths.all();
    auto rx_all = rx_paths.all();

    TextTable table;
    table.header({"Size [B]", "ivshmem", "VMCALL", "ELISA",
                  "vhost-net", "SR-IOV", "(Mpps)"});
    double elisa64 = 0, vmcall64 = 0;
    for (std::uint32_t size : netSizes) {
        std::vector<double> mpps;
        for (std::size_t i = 0; i < tx_all.size(); ++i) {
            nic.reset();
            const bool wire = std::string(tx_all[i]->name()) == "SR-IOV";
            auto r = net::runVm2Vm(*tx_all[i], *rx_all[i], nic, wire,
                                   size, netPackets);
            fatal_if(r.corrupt != 0, "corrupt packets on %s",
                     tx_all[i]->name());
            mpps.push_back(r.mpps());
        }
        // PathSet order: sriov, direct, elisa, vmcall, vhost.
        table.row({std::to_string(size),
                   detail::format("%.2f", mpps[1]),
                   detail::format("%.2f", mpps[3]),
                   detail::format("%.2f", mpps[2]),
                   detail::format("%.2f", mpps[4]),
                   detail::format("%.2f", mpps[0]), ""});
        if (size == 64) {
            elisa64 = mpps[2];
            vmcall64 = mpps[3];
        }
    }
    std::printf("%s\n", table.render().c_str());
    saveCsv(table, "F5_net_vm2vm");

    paperCheck("ELISA VM-to-VM gain over VMCALL @64B",
               (elisa64 - vmcall64) / vmcall64 * 100.0, 163.0, "%");
}

} // namespace elisa::bench
