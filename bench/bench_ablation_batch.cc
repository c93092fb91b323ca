/**
 * @file
 * Experiment A3 — ablation: amortizing the transition by batching.
 *
 * Both the 196 ns gate call and the 699 ns VMCALL are per-crossing
 * costs; batching N operations per crossing amortizes them. This
 * ablation sweeps the batch size for a KVS-GET-class operation
 * (590 ns of core work per op) and shows (a) ELISA's advantage is
 * largest at batch 1 — the regime the paper's per-packet/per-op use
 * cases live in — and (b) with deep batching the schemes converge,
 * which is why exit cost only matters for fine-grained sharing.
 */

#include <cstdio>
#include <vector>

#include "bench/common.hh"
#include "elisa/gate.hh"

namespace
{

using namespace elisa;
using namespace elisa::bench;

constexpr std::uint64_t opsPerPoint = 200000;

} // namespace

namespace elisa::bench
{

void
ablationBatch()
{
    Testbed bed;
    hv::Vm &vm = bed.addGuest("guest", 64 * MiB);
    core::ElisaGuest guest(vm, bed.svc);
    const sim::CostModel &cost = bed.hv.cost();

    // The shared function: one GET-class unit of work on the object.
    core::SharedFnTable fns;
    fns.push_back([&cost](core::SubCallCtx &ctx) {
        ctx.view.vcpu().clock().advance(cost.kvsGetCoreNs);
        return ctx.view.read<std::uint64_t>(ctx.obj);
    });
    fatal_if(!bed.manager.exportObject(core::ExportKey("batch"), pageSize,
                                       std::move(fns)),
             "export failed");
    core::Gate gate = mustAttach(guest, core::ExportKey("batch"), bed.manager);
    cpu::Vcpu &cpu = guest.vcpu();

    // Host-side handler for the batched VMCALL equivalent.
    const std::uint64_t hc_batch = bed.hv.allocServiceNr();
    bed.hv.registerHypercall(
        hc_batch, [&cost](cpu::Vcpu &vcpu,
                          const cpu::HypercallArgs &args) {
            vcpu.clock().advance(args.arg0 * cost.kvsGetCoreNs);
            return std::uint64_t{0};
        });

    TextTable table;
    table.header({"Batch", "ELISA [Mops/s]", "VMCALL [Mops/s]",
                  "ELISA gain", "crossing ns/op (E vs V)"});
    for (std::uint64_t batch : {1ull, 2ull, 4ull, 8ull, 16ull, 32ull,
                                64ull}) {
        std::vector<core::Gate::BatchEntry> entries(batch);

        // ELISA batched.
        gate.callBatch(entries); // warm
        SimNs t0 = cpu.clock().now();
        for (std::uint64_t i = 0; i < opsPerPoint / batch; ++i)
            gate.callBatch(entries);
        SimNs elapsed = cpu.clock().now() - t0;
        const double elisa_mops =
            (double)((opsPerPoint / batch) * batch) * 1e3 /
            (double)elapsed;

        // VMCALL batched.
        t0 = cpu.clock().now();
        for (std::uint64_t i = 0; i < opsPerPoint / batch; ++i) {
            cpu.vmcall(hv::hcArgs(static_cast<hv::Hc>(hc_batch),
                                  batch));
        }
        elapsed = cpu.clock().now() - t0;
        const double vmcall_mops =
            (double)((opsPerPoint / batch) * batch) * 1e3 /
            (double)elapsed;

        table.row({std::to_string(batch),
                   detail::format("%.2f", elisa_mops),
                   detail::format("%.2f", vmcall_mops),
                   detail::format("%+.0f%%",
                                  (elisa_mops - vmcall_mops) /
                                      vmcall_mops * 100),
                   detail::format("%.0f vs %.0f",
                                  (double)cost.elisaRttNs() /
                                      (double)batch,
                                  (double)cost.vmcallRttNs() /
                                      (double)batch)});
    }
    std::printf("%s\n", table.render().c_str());
    saveCsv(table, "A3_batch_ablation");
    std::printf("  fine-grained sharing (batch 1) is where the exit "
                "cost decides the outcome —\n"
                "  exactly the regime of per-packet I/O and per-op "
                "KVS access in F1-F5.\n");
}

} // namespace elisa::bench
