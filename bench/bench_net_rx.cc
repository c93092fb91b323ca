/**
 * @file
 * Experiment F3 — VM networking RX over the physical NIC vs packet
 * size, five schemes (paper: ELISA +163 % over VMCALL at 64 B; all
 * CPU-bound schemes converge to the 10 GbE line rate at 1472 B).
 *
 * A second table reproduces the §7.1 observation that motivated the
 * paper: with HyperNF-class per-packet NF work, VMCALL-based host
 * interposition loses ~49 % against direct mapping.
 */

#include "bench/net_common.hh"

namespace elisa::bench
{

void
netRx()
{
    Testbed bed;
    hv::Vm &vm = bed.addGuest("rx-guest", 64 * MiB);
    core::ElisaGuest guest(vm, bed.svc);
    PathSet paths(bed, vm, guest, "rx");
    net::PhysNic nic(bed.hv.cost());

    auto run = [&nic](net::NetPath &p, std::uint32_t size) {
        nic.reset();
        auto r = net::runRx(p, nic, size, netPackets);
        fatal_if(r.corrupt != 0, "corrupt packets on %s", p.name());
        return r.mpps();
    };
    auto [elisa64, vmcall64, direct64] =
        printNetFigure(paths, run, "F3_net_rx");

    paperCheck("ELISA RX gain over VMCALL @64B",
               (elisa64 - vmcall64) / vmcall64 * 100.0, 163.0, "%");
    const double line1472 = 1e3 / 1196.8;
    nic.reset();
    auto big = net::runRx(paths.vmcall, nic, 1472, 20000);
    paperCheck("all schemes line-rate bound @1472B", big.mpps(),
               line1472, "Mpps");

    // --- the HyperNF observation (intro / §7.1) ---------------------
    std::printf("\nHyperNF-class NF work (heavier per-packet "
                "processing):\n");
    sim::CostModel heavy;
    heavy.netPerPacketNs += 615; // NF chain processing per packet
    Testbed bed2(1536 * MiB, heavy);
    hv::Vm &vm2 = bed2.addGuest("rx-heavy", 64 * MiB);
    core::ElisaGuest guest2(vm2, bed2.svc);
    net::DirectPath direct2(bed2.hv, vm2);
    net::VmcallPath vmcall2(bed2.hv, vm2);
    net::ElisaPath elisa2(bed2.hv, bed2.manager, guest2, "nic-heavy");
    net::PhysNic nic2(heavy);

    auto run2 = [&nic2](net::NetPath &p) {
        nic2.reset();
        return net::runRx(p, nic2, 64, netPackets).mpps();
    };
    const double h_direct = run2(direct2);
    const double h_vmcall = run2(vmcall2);
    const double h_elisa = run2(elisa2);

    TextTable t2;
    t2.header({"Scheme", "64B RX [Mpps]", "vs direct-mapping"});
    t2.row({"ivshmem", detail::format("%.2f", h_direct), "--"});
    t2.row({"VMCALL", detail::format("%.2f", h_vmcall),
            detail::format("%+.0f%%",
                           (h_vmcall - h_direct) / h_direct * 100)});
    t2.row({"ELISA", detail::format("%.2f", h_elisa),
            detail::format("%+.0f%%",
                           (h_elisa - h_direct) / h_direct * 100)});
    std::printf("%s\n", t2.render().c_str());
    paperCheck("HyperNF VMCALL reduction vs direct",
               (h_direct - h_vmcall) / h_direct * 100.0, 49.0, "%");

    BenchReport report("net_rx");
    report.set("elisa_64b_mpps", elisa64);
    report.set("vmcall_64b_mpps", vmcall64);
    report.set("direct_64b_mpps", direct64);
    report.set("hypernf_direct_mpps", h_direct);
    report.set("hypernf_vmcall_mpps", h_vmcall);
    report.set("hypernf_elisa_mpps", h_elisa);
    report.set("hypernf_vmcall_reduction_pct",
               (h_direct - h_vmcall) / h_direct * 100.0);
}

} // namespace elisa::bench
