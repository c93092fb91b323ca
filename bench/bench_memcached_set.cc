/**
 * @file
 * Experiment F7 — memcached, SET-heavy (50/50): p99 latency vs
 * achieved throughput. Writes carry the heavier store cost, so every
 * scheme's knee sits at roughly half the GET-heavy load — the paper's
 * second memcached panel.
 */

#include "bench/mc_common.hh"

namespace elisa::bench
{

void
memcachedSet()
{
    Testbed bed(2 * GiB);
    const std::vector<double> loads = {25, 50, 75, 100, 150,
                                       200, 250, 300};
    const double set_ratio = 0.5;

    TextTable table;
    table.header({"Scheme", "Offered [Krps]", "Achieved [Krps]",
                  "p50 [us]", "p99 [us]"});

    hv::Vm &vm_sriov = bed.addGuest("mc-sriov", 64 * MiB);
    net::SriovPath sriov(bed.hv, vm_sriov);
    runMcCurve("SR-IOV", sriov, bed.hv, vm_sriov, set_ratio, loads,
               table);

    hv::Vm &vm_direct = bed.addGuest("mc-ivshmem", 64 * MiB);
    net::DirectPath direct(bed.hv, vm_direct);
    auto p_direct = runMcCurve("ivshmem", direct, bed.hv, vm_direct,
                               set_ratio, loads, table);

    hv::Vm &vm_elisa = bed.addGuest("mc-elisa", 64 * MiB);
    core::ElisaGuest guest(vm_elisa, bed.svc);
    net::ElisaPath elisa(bed.hv, bed.manager, guest, "mc-set");
    auto p_elisa = runMcCurve("ELISA", elisa, bed.hv, vm_elisa,
                              set_ratio, loads, table);

    hv::Vm &vm_vmcall = bed.addGuest("mc-vmcall", 64 * MiB);
    net::VmcallPath vmcall(bed.hv, vm_vmcall);
    auto p_vmcall = runMcCurve("VMCALL", vmcall, bed.hv, vm_vmcall,
                               set_ratio, loads, table);

    hv::Vm &vm_vhost = bed.addGuest("mc-vhost", 64 * MiB);
    net::VhostPath vhost(bed.hv, vm_vhost);
    runMcCurve("vhost-net", vhost, bed.hv, vm_vhost, set_ratio, loads,
               table);

    std::printf("%s\n", table.render().c_str());
    saveCsv(table, "F7_memcached_set");
    paperCheck("ELISA sustainable Krps vs VMCALL (p99<=300us)",
               (p_elisa.achievedKrps() - p_vmcall.achievedKrps()) /
                   p_vmcall.achievedKrps() * 100.0,
               39.0, "%");
    paperCheck("SET-heavy knee vs GET-heavy knee (ivshmem)",
               p_direct.achievedKrps(), 250.0, "Krps");
}

} // namespace elisa::bench
