/**
 * @file
 * Experiment F6 — memcached, GET-heavy (90/10): 99th-percentile
 * latency vs achieved throughput for the five networking schemes
 * (paper: ELISA sustains markedly more load than VMCALL before the
 * latency knee, with ~44 % lower p99 in the contested region).
 */

#include "bench/mc_common.hh"

namespace elisa::bench
{

void
memcachedGet()
{
    Testbed bed(2 * GiB);
    const std::vector<double> loads = {50, 100, 150, 200, 250,
                                       300, 350, 400, 450};
    const double set_ratio = 0.1;

    TextTable table;
    table.header({"Scheme", "Offered [Krps]", "Achieved [Krps]",
                  "p50 [us]", "p99 [us]"});

    // One server VM per scheme.
    hv::Vm &vm_sriov = bed.addGuest("mc-sriov", 64 * MiB);
    net::SriovPath sriov(bed.hv, vm_sriov);
    auto p_sriov = runMcCurve("SR-IOV", sriov, bed.hv, vm_sriov,
                              set_ratio, loads, table);

    hv::Vm &vm_direct = bed.addGuest("mc-ivshmem", 64 * MiB);
    net::DirectPath direct(bed.hv, vm_direct);
    auto p_direct = runMcCurve("ivshmem", direct, bed.hv, vm_direct,
                               set_ratio, loads, table);

    hv::Vm &vm_elisa = bed.addGuest("mc-elisa", 64 * MiB);
    core::ElisaGuest guest(vm_elisa, bed.svc);
    net::ElisaPath elisa(bed.hv, bed.manager, guest, "mc-get");
    auto p_elisa = runMcCurve("ELISA", elisa, bed.hv, vm_elisa,
                              set_ratio, loads, table);

    hv::Vm &vm_vmcall = bed.addGuest("mc-vmcall", 64 * MiB);
    net::VmcallPath vmcall(bed.hv, vm_vmcall);
    auto p_vmcall = runMcCurve("VMCALL", vmcall, bed.hv, vm_vmcall,
                               set_ratio, loads, table);

    hv::Vm &vm_vhost = bed.addGuest("mc-vhost", 64 * MiB);
    net::VhostPath vhost(bed.hv, vm_vhost);
    auto p_vhost = runMcCurve("vhost-net", vhost, bed.hv, vm_vhost,
                              set_ratio, loads, table);
    (void)p_sriov;
    (void)p_direct;
    (void)p_vhost;

    std::printf("%s\n", table.render().c_str());
    saveCsv(table, "F6_memcached_get");
    paperCheck("ELISA sustainable Krps vs VMCALL (p99<=300us)",
               (p_elisa.achievedKrps() - p_vmcall.achievedKrps()) /
                   p_vmcall.achievedKrps() * 100.0,
               54.0, "%");

    // p99 at a common contested load (the largest load VMCALL still
    // sustains): rerun both at that point for an apples-to-apples
    // latency comparison.
    {
        hv::Vm &vm_e2 = bed.addGuest("mc-elisa2", 64 * MiB);
        core::ElisaGuest guest2(vm_e2, bed.svc);
        net::ElisaPath elisa2(bed.hv, bed.manager, guest2, "mc-get2");
        memcached::Server se(bed.hv, vm_e2, elisa2);
        hv::Vm &vm_v2 = bed.addGuest("mc-vmcall2", 64 * MiB);
        net::VmcallPath vmcall2(bed.hv, vm_v2);
        memcached::Server sv(bed.hv, vm_v2, vmcall2);
        net::PhysNic nic_e(bed.hv.cost()), nic_v(bed.hv.cost());
        const double contested = p_vmcall.achievedKrps() * 0.95 * 1e3;
        auto pe = memcached::runLoadPoint(se, nic_e, contested,
                                          mcRequests, set_ratio,
                                          mcKeySpace);
        auto pv = memcached::runLoadPoint(sv, nic_v, contested,
                                          mcRequests, set_ratio,
                                          mcKeySpace);
        paperCheck("ELISA p99 reduction vs VMCALL @contested load",
                   (1.0 - (double)pe.p99 / (double)pv.p99) * 100.0,
                   44.0, "%");
    }
}

} // namespace elisa::bench
