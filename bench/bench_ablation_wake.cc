/**
 * @file
 * Experiment A4 — ablation: polling vs interrupt-driven server
 * wake-up (memcached over the ELISA datapath).
 *
 * The paper's datapaths poll; a deployment may prefer to halt the
 * server vCPU when idle and wake it by doorbell. This quantifies the
 * trade: at low load, interrupts add ~one IPI latency to the median
 * but release almost the whole core; near saturation the two modes
 * converge (the server never sleeps).
 */

#include <cstdio>

#include "bench/common.hh"
#include "memcached/loadgen.hh"

namespace elisa::bench
{

void
ablationWake()
{
    Testbed bed(2 * GiB);
    hv::Vm &vm_poll = bed.addGuest("mc-poll", 64 * MiB);
    core::ElisaGuest guest_poll(vm_poll, bed.svc);
    net::ElisaPath path_poll(bed.hv, bed.manager, guest_poll,
                             "mc-wake-poll");
    memcached::Server server_poll(bed.hv, vm_poll, path_poll);

    hv::Vm &vm_irq = bed.addGuest("mc-irq", 64 * MiB);
    core::ElisaGuest guest_irq(vm_irq, bed.svc);
    net::ElisaPath path_irq(bed.hv, bed.manager, guest_irq,
                            "mc-wake-irq");
    memcached::Server server_irq(bed.hv, vm_irq, path_irq);

    net::PhysNic nic_poll(bed.hv.cost()), nic_irq(bed.hv.cost());

    TextTable table;
    table.header({"Offered [Krps]", "poll p50 [us]", "irq p50 [us]",
                  "poll CPU", "irq CPU"});
    for (double krps : {10.0, 50.0, 100.0, 200.0, 300.0}) {
        auto poll = memcached::runLoadPoint(
            server_poll, nic_poll, krps * 1e3, 8000, 0.1, 1024, 7,
            memcached::WakeMode::Polling);
        auto irq = memcached::runLoadPoint(
            server_irq, nic_irq, krps * 1e3, 8000, 0.1, 1024, 7,
            memcached::WakeMode::Interrupt);
        table.row({detail::format("%.0f", krps),
                   detail::format("%.1f", (double)poll.p50 / 1e3),
                   detail::format("%.1f", (double)irq.p50 / 1e3),
                   detail::format("%.0f%%",
                                  poll.cpuUtilization * 100),
                   detail::format("%.0f%%",
                                  irq.cpuUtilization * 100)});
    }
    std::printf("%s\n", table.render().c_str());
    saveCsv(table, "A4_wake_mode");

    std::printf("  interrupts trade ~%.1f us of median latency at "
                "low load for an almost-idle\n"
                "  core; the gap closes as load keeps the server "
                "awake.\n",
                (double)bed.hv.cost().ipiDeliverNs / 1e3);
}

} // namespace elisa::bench
