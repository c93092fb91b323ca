/**
 * @file
 * Experiment A2 — ablation: EPTP-tagged TLB vs flush-on-switch.
 *
 * Part of why VMFUNC is cheap is microarchitectural: translations are
 * tagged with the EPTP, so an EPTP switch does not flush the TLB.
 * This bench emulates an untagged design by flushing the vCPU's
 * translation cache around every gate call and sweeps the per-call
 * working set, showing how the re-walk cost would erode the 196 ns
 * advantage.
 */

#include <cstdio>

#include "bench/common.hh"
#include "elisa/gate.hh"

namespace
{

using namespace elisa;
using namespace elisa::bench;

constexpr std::uint64_t iterations = 50000;

} // namespace

namespace elisa::bench
{

void
ablationTlb()
{
    Testbed bed;
    hv::Vm &vm = bed.addGuest("guest", 64 * MiB);
    core::ElisaGuest guest(vm, bed.svc);

    // Shared function: touch arg0 pages of the object.
    core::SharedFnTable fns;
    fns.push_back([](core::SubCallCtx &ctx) {
        for (std::uint64_t p = 0; p < ctx.arg0; ++p)
            ctx.view.read<std::uint64_t>(ctx.obj + p * pageSize);
        return std::uint64_t{0};
    });
    const std::uint64_t obj_pages = 64;
    fatal_if(!bed.manager.exportObject(core::ExportKey("tlb"), obj_pages * pageSize,
                                       std::move(fns)),
             "export failed");
    core::Gate gate = mustAttach(guest, core::ExportKey("tlb"), bed.manager);
    cpu::Vcpu &cpu = guest.vcpu();

    TextTable table;
    table.header({"Pages/call", "tagged [ns/call]",
                  "flush-on-switch [ns/call]", "penalty"});
    for (std::uint64_t pages : {0ull, 1ull, 4ull, 16ull, 64ull}) {
        gate.call(0, pages); // warm
        SimNs t0 = cpu.clock().now();
        for (std::uint64_t i = 0; i < iterations; ++i)
            gate.call(0, pages);
        const double tagged =
            (double)(cpu.clock().now() - t0) / (double)iterations;

        t0 = cpu.clock().now();
        for (std::uint64_t i = 0; i < iterations; ++i) {
            // Untagged hardware: the switch wipes the cache.
            cpu.tlb().flushAll();
            gate.call(0, pages);
        }
        const double flushed =
            (double)(cpu.clock().now() - t0) / (double)iterations;

        table.row({std::to_string(pages),
                   detail::format("%.0f", tagged),
                   detail::format("%.0f", flushed),
                   detail::format("%+.0f ns", flushed - tagged)});
    }
    std::printf("%s\n", table.render().c_str());
    saveCsv(table, "A2_tlb_ablation");
    std::printf("  without tagging, every call re-walks its working "
                "set (%llu ns per page);\n"
                "  at 64 pages/call the penalty dwarfs the 196 ns "
                "round trip itself.\n",
                (unsigned long long)bed.hv.cost().eptWalkNs);
}

} // namespace elisa::bench
