/**
 * @file
 * Experiment A1 — ablation of the gate-context design.
 *
 * ELISA routes every call through a dedicated gate EPT context
 * (4 VMFUNCs + 2 trampoline segments). A hypothetical "no gate"
 * design would VMFUNC straight into the sub context (2 VMFUNCs, no
 * trampoline) — cheaper, but the callee would then run on the
 * *caller's* stack, which the sub context would have to map,
 * destroying the isolation of guest memory from shared code. This
 * bench quantifies what the gate costs: the price of isolation on
 * the fast path, per call and at the KVS application level.
 */

#include <cstdio>

#include "bench/common.hh"
#include "elisa/gate.hh"
#include "kvs/clients.hh"

namespace
{

using namespace elisa;
using namespace elisa::bench;

constexpr std::uint64_t iterations = 200000;

} // namespace

namespace elisa::bench
{

void
ablationGate()
{
    Testbed bed;
    hv::Vm &vm = bed.addGuest("guest", 64 * MiB);
    core::ElisaGuest guest(vm, bed.svc);

    core::SharedFnTable fns;
    fns.push_back([](core::SubCallCtx &) { return std::uint64_t{0}; });
    fatal_if(!bed.manager.exportObject(core::ExportKey("abl"), pageSize, std::move(fns)),
             "export failed");
    core::Gate gate = mustAttach(guest, core::ExportKey("abl"), bed.manager);
    cpu::Vcpu &cpu = guest.vcpu();

    // (a) the real gated path.
    gate.call(0);
    SimNs t0 = cpu.clock().now();
    for (std::uint64_t i = 0; i < iterations; ++i)
        gate.call(0);
    const double gated =
        (double)(cpu.clock().now() - t0) / (double)iterations;

    // (b) hypothetical no-gate entry: VMFUNC to the sub context and
    // back, invoking the shared function directly (unsafe: caller
    // stack would need to be mapped in the sub context).
    core::Attachment *attach =
        bed.svc.attachment(gate.info().attachment);
    fatal_if(!attach, "attachment lookup failed");
    const auto &table = attach->exportRecord().functions();
    t0 = cpu.clock().now();
    for (std::uint64_t i = 0; i < iterations; ++i) {
        cpu.vmfunc(0, gate.info().subIndex);
        cpu::GuestView sub_view(cpu);
        core::SubCallCtx ctx{sub_view, core::objectGpa, pageSize,
                             core::exchangeGpa, 0, 0, 0, 0};
        table[0](ctx);
        cpu.vmfunc(0, 0);
    }
    const double ungated =
        (double)(cpu.clock().now() - t0) / (double)iterations;

    // (c) VMCALL, for scale.
    t0 = cpu.clock().now();
    for (std::uint64_t i = 0; i < iterations; ++i)
        cpu.vmcall(hv::hcArgs(hv::Hc::Nop));
    const double vmcall =
        (double)(cpu.clock().now() - t0) / (double)iterations;

    TextTable tbl;
    tbl.header({"Design", "RTT [ns]", "Isolated stack?"});
    tbl.row({"gated (ELISA)", detail::format("%.0f", gated), "yes"});
    tbl.row({"no gate (2 VMFUNC)", detail::format("%.0f", ungated),
             "no  <- caller stack leaks into sub ctx"});
    tbl.row({"VMCALL", detail::format("%.0f", vmcall), "yes (host)"});
    std::printf("%s\n", tbl.render().c_str());
    saveCsv(tbl, "A1_gate_ablation");

    std::printf("  gate-context premium: %.0f ns/call (%.0f%% of the "
                "gated RTT) buys per-client\n"
                "  stack + exchange isolation; still %.1fx cheaper "
                "than host interposition.\n\n",
                gated - ungated, (gated - ungated) / gated * 100.0,
                vmcall / gated);

    // Application-level impact: KVS GET with each design's RTT.
    const sim::CostModel &cost = bed.hv.cost();
    const double get_core = (double)cost.kvsGetCoreNs;
    TextTable app;
    app.header({"Design", "KVS GET est. [Mops/s/VM]"});
    app.row({"gated (ELISA)",
             detail::format("%.2f", 1e3 / (get_core + gated))});
    app.row({"no gate",
             detail::format("%.2f", 1e3 / (get_core + ungated))});
    app.row({"VMCALL",
             detail::format("%.2f", 1e3 / (get_core + vmcall))});
    std::printf("%s\n", app.render().c_str());
    saveCsv(app, "A1_gate_ablation_kvs");
    std::printf("  the unsafe design would gain only ~%.0f%% GET "
                "throughput: the gate is cheap\n"
                "  relative to the work it protects.\n",
                (gated - ungated) / (get_core + gated) * 100.0);
}

} // namespace elisa::bench
