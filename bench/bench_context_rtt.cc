/**
 * @file
 * Experiment T2 — the headline table: context round-trip time of the
 * ELISA gate call vs a VMCALL-based host interposition (paper: 196 ns
 * vs 699 ns, "3.5 times smaller").
 */

#include <cstdio>

#include "bench/common.hh"
#include "elisa/gate.hh"

namespace
{

using namespace elisa;
using namespace elisa::bench;

constexpr std::uint64_t iterations = 1000000;

} // namespace

namespace elisa::bench
{

void
contextRtt()
{
    Testbed bed;
    hv::Vm &guest_vm = bed.addGuest("guest");
    core::ElisaGuest guest(guest_vm, bed.svc);

    // Export a no-op function: the pure context round trip.
    core::SharedFnTable fns;
    fns.push_back([](core::SubCallCtx &) { return std::uint64_t{0}; });
    auto exported = bed.manager.exportObject(core::ExportKey("noop"), pageSize,
                                             std::move(fns));
    fatal_if(!exported, "export failed");
    auto [gate, capability] =
        mustAttachWithCapability(guest, core::ExportKey("noop"),
                                 bed.manager);

    cpu::Vcpu &cpu = guest.vcpu();

    // ELISA gate call.
    gate.call(0); // warm the translation caches
    SimNs t0 = cpu.clock().now();
    for (std::uint64_t i = 0; i < iterations; ++i)
        gate.call(0);
    const double elisa_ns =
        (double)(cpu.clock().now() - t0) / (double)iterations;

    // VMCALL (Nop hypercall).
    t0 = cpu.clock().now();
    for (std::uint64_t i = 0; i < iterations; ++i)
        cpu.vmcall(hv::hcArgs(hv::Hc::Nop));
    const double vmcall_ns =
        (double)(cpu.clock().now() - t0) / (double)iterations;

    TextTable table;
    table.header({"Description", "Time [ns]", "Paper [ns]"});
    table.row({"ELISA", detail::format("%.0f", elisa_ns), "196"});
    table.row({"VMCALL", detail::format("%.0f", vmcall_ns), "699"});
    std::printf("%s\n", table.render().c_str());
    saveCsv(table, "T2_context_rtt");

    paperCheck("ELISA context RTT", elisa_ns, 196.0, "ns");
    paperCheck("VMCALL context RTT", vmcall_ns, 699.0, "ns");
    paperCheck("VMCALL/ELISA ratio", vmcall_ns / elisa_ns, 3.5, "x");

    // Delegated gate: a second guest redeems a capability delegated by
    // the first — without a manager round trip — and its per-call cost
    // must match the directly attached gate exactly (the fast path is
    // the same VMFUNC sequence; delegation adds no exits).
    hv::Vm &peer_vm = bed.addGuest("peer");
    core::ElisaGuest peer(peer_vm, bed.svc);
    auto child = capability.delegate(peer_vm.id());
    fatal_if(!child, "delegation failed");
    core::AttachResult redeemed = peer.redeem(*child);
    fatal_if(!redeemed.ok(), "redeem failed: %s",
             redeemed.reason().c_str());
    core::Gate delegated = redeemed.take();
    cpu::Vcpu &peer_cpu = peer.vcpu();

    delegated.call(0); // warm the translation caches
    t0 = peer_cpu.clock().now();
    for (std::uint64_t i = 0; i < iterations; ++i)
        delegated.call(0);
    const double delegated_ns =
        (double)(peer_cpu.clock().now() - t0) / (double)iterations;

    paperCheck("Delegated-gate context RTT", delegated_ns, 196.0, "ns");
    std::printf("  delegated/direct ratio: %.4f (a redeemed "
                "capability rides the identical fast path)\n",
                delegated_ns / elisa_ns);

    BenchReport report("context_rtt");
    report.set("elisa_rtt_ns", elisa_ns);
    report.set("vmcall_rtt_ns", vmcall_ns);
    report.set("vmcall_over_elisa_ratio", vmcall_ns / elisa_ns);
    report.set("delegated_rtt_ns", delegated_ns);
    report.set("delegated_over_direct_ratio", delegated_ns / elisa_ns);
}

} // namespace elisa::bench
