/**
 * @file
 * Experiment F4 — VM networking TX over the physical NIC vs packet
 * size, five schemes. Same cost structure as RX (the figures mirror
 * each other in the paper); ring-slot backpressure from the line-rate
 * wire caps large packets.
 */

#include "bench/net_common.hh"

namespace elisa::bench
{

void
netTx()
{
    Testbed bed;
    hv::Vm &vm = bed.addGuest("tx-guest", 64 * MiB);
    core::ElisaGuest guest(vm, bed.svc);
    PathSet paths(bed, vm, guest, "tx");
    net::PhysNic nic(bed.hv.cost());

    auto run = [&nic](net::NetPath &p, std::uint32_t size) {
        nic.reset();
        auto r = net::runTx(p, nic, size, netPackets);
        fatal_if(r.corrupt != 0, "corrupt packets on %s", p.name());
        return r.mpps();
    };
    auto [elisa64, vmcall64, direct64] =
        printNetFigure(paths, run, "F4_net_tx");
    (void)direct64;

    paperCheck("ELISA TX gain over VMCALL @64B",
               (elisa64 - vmcall64) / vmcall64 * 100.0, 163.0, "%");
}

} // namespace elisa::bench
