/**
 * @file
 * Experiment T4 — slow-path setup costs: export cost vs object size,
 * attach/detach negotiation cost, and EPTP-list headroom when one
 * guest attaches to many exports.
 */

#include <cstdio>

#include "bench/common.hh"
#include "elisa/gate.hh"

namespace
{

using namespace elisa;
using namespace elisa::bench;

core::SharedFnTable
noopFns()
{
    core::SharedFnTable fns;
    fns.push_back([](core::SubCallCtx &) { return std::uint64_t{0}; });
    return fns;
}

} // namespace

namespace elisa::bench
{

void
setupCost()
{
    // --- export cost vs object size --------------------------------
    {
        Testbed bed;
        TextTable table;
        table.header({"Object size", "Export cost", "Attach cost",
                      "Detach cost"});
        hv::Vm &guest_vm = bed.addGuest("guest", 64 * MiB);
        core::ElisaGuest guest(guest_vm, bed.svc);

        for (std::uint64_t bytes :
             {4 * KiB, 64 * KiB, 1 * MiB, 16 * MiB}) {
            const core::ExportKey name(
                "obj-" + std::to_string(bytes));

            cpu::Vcpu &mgr_cpu = bed.manager.vcpu();
            const SimNs m0 = mgr_cpu.clock().now();
            auto exported =
                bed.manager.exportObject(name, bytes, noopFns());
            fatal_if(!exported, "export failed");
            const SimNs export_ns = mgr_cpu.clock().now() - m0;

            cpu::Vcpu &g_cpu = guest.vcpu();
            const SimNs g0 = g_cpu.clock().now();
            const SimNs mgr_before = mgr_cpu.clock().now();
            core::Gate gate = mustAttach(guest, name, bed.manager);
            const SimNs attach_ns = (g_cpu.clock().now() - g0) +
                                    (mgr_cpu.clock().now() - mgr_before);

            const SimNs d0 = g_cpu.clock().now();
            gate.detach();
            const SimNs detach_ns = g_cpu.clock().now() - d0;

            table.row({humanBytes(bytes),
                       humanNs((double)export_ns),
                       humanNs((double)attach_ns),
                       humanNs((double)detach_ns)});
        }
        std::printf("%s\n", table.render().c_str());
        saveCsv(table, "T4_setup_export");
        std::printf("  attach cost scales with the number of sub-EPT "
                    "leaves (one PTE write each;\n"
                    "  large pages flatten it for big objects, next "
                    "table); the data path is\n"
                    "  unaffected: calls stay at the T2 round trip "
                    "regardless of size.\n\n");
    }

    // --- large pages: attach-cost acceleration for big objects ------
    {
        Testbed bed;
        hv::Vm &guest_vm = bed.addGuest("guest", 64 * MiB);
        core::ElisaGuest guest(bed.hv.vm(guest_vm.id()), bed.svc);

        TextTable table;
        table.header({"16 MiB object backing", "sub-EPT leaves",
                      "attach cost"});
        // Aligned: exportObject aligns objects >= 2 MiB automatically.
        {
            auto exported = bed.manager.exportObject(core::ExportKey("big-aligned"),
                                                     16 * MiB,
                                                     noopFns());
            fatal_if(!exported, "export failed");
            cpu::Vcpu &g = guest.vcpu();
            cpu::Vcpu &m = bed.manager.vcpu();
            const SimNs t0 = g.clock().now() + m.clock().now();
            core::Gate gate = mustAttach(guest, core::ExportKey("big-aligned"), bed.manager);
            const SimNs cost_ns =
                g.clock().now() + m.clock().now() - t0;
            core::Attachment *a =
                bed.svc.attachment(gate.info().attachment);
            table.row({"2 MiB-aligned (large pages)",
                       std::to_string(a->subEpt().mappedPages()),
                       humanNs((double)cost_ns)});
        }
        // Force 4 KiB: misalign the object by allocating a page first.
        {
            bed.managerVm.allocGuestMem(pageSize);
            auto obj = bed.managerVm.allocGuestMem(16 * MiB + pageSize);
            fatal_if(!obj, "alloc failed");
            // Hand-roll an export at the odd GPA via the service path.
            bed.svc.stageFunctions(bed.managerVm.id(), noopFns());
            cpu::GuestView mview(bed.manager.vcpu());
            const char *name = "big-4k";
            mview.writeBytes(0x200, name, 6);
            cpu::HypercallArgs args;
            args.nr = static_cast<std::uint64_t>(
                core::ElisaHc::Export);
            args.arg0 = 0x200;
            args.arg1 = 6;
            args.arg2 = *obj + pageSize; // deliberately misaligned
            args.arg3 = 16 * MiB;
            fatal_if(bed.manager.vcpu().vmcall(args) == hv::hcError,
                     "export failed");
            cpu::Vcpu &g = guest.vcpu();
            cpu::Vcpu &m = bed.manager.vcpu();
            const SimNs t0 = g.clock().now() + m.clock().now();
            core::Gate gate = mustAttach(guest, core::ExportKey("big-4k"), bed.manager);
            const SimNs cost_ns =
                g.clock().now() + m.clock().now() - t0;
            core::Attachment *a =
                bed.svc.attachment(gate.info().attachment);
            table.row({"page-aligned only (4 KiB)",
                       std::to_string(a->subEpt().mappedPages()),
                       humanNs((double)cost_ns)});
        }
        std::printf("%s\n", table.render().c_str());
        saveCsv(table, "T4_setup_large_pages");
        std::printf("  2 MiB EPT leaves cut the PTE writes for big "
                    "objects by ~512x, shrinking\n"
                    "  attach latency accordingly (an extension over "
                    "the paper's 4 KiB-only setup).\n\n");
    }

    // --- EPTP-list headroom: many attachments on one vCPU -------------
    {
        Testbed bed(3 * GiB / 2);
        hv::Vm &guest_vm = bed.addGuest("guest", 64 * MiB);
        core::ElisaGuest guest(guest_vm, bed.svc);

        TextTable table;
        table.header({"Attachments", "EPTP entries used",
                      "attach total", "call RTT"});
        std::vector<core::Gate> gates;
        const unsigned steps[] = {1, 8, 32, 64};
        unsigned created = 0;
        SimNs attach_total = 0;
        for (unsigned target : steps) {
            while (created < target) {
                const core::ExportKey name(
                    "multi-" + std::to_string(created));
                fatal_if(!bed.manager.exportObject(name, pageSize,
                                                   noopFns()),
                         "export failed");
                const SimNs g0 = guest.vcpu().clock().now();
                core::Gate gate =
                    mustAttach(guest, name, bed.manager);
                attach_total += guest.vcpu().clock().now() - g0;
                gates.push_back(std::move(gate));
                ++created;
            }
            // RTT through the newest gate stays flat.
            gates.back().call(0);
            const SimNs t0 = guest.vcpu().clock().now();
            for (int i = 0; i < 1000; ++i)
                gates.back().call(0);
            const double rtt =
                (double)(guest.vcpu().clock().now() - t0) / 1000.0;

            table.row({std::to_string(target),
                       std::to_string(
                           guest.vcpu().eptpList().validCount()),
                       humanNs((double)attach_total),
                       detail::format("%.0f ns", rtt)});
        }
        std::printf("%s\n", table.render().c_str());
        saveCsv(table, "T4_setup_eptp_headroom");
        std::printf("  each attachment consumes 2 of the 512 EPTP-list "
                    "slots (gate + sub context),\n"
                    "  bounding one vCPU to ~255 concurrent "
                    "attachments; call cost is independent.\n");
    }
}

} // namespace elisa::bench
