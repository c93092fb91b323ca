/**
 * @file
 * Experiment P1 — shared-object access under memory overcommit: the
 * same zipfian touch stream over a manager-exported object, served by
 * the three sharing schemes (ELISA gate call, VMCALL host
 * interposition, ivshmem-style direct mapping), swept across
 * overcommit ratios. The object is demand-paged against a resident
 * budget of objectPages/ratio frames, so ratio 1.0 never swaps after
 * warmup while ratio 3.0 thrashes; per-op p50 stays near the scheme's
 * base cost (the hot zipf head stays resident) while p99 absorbs the
 * EPT-violation + swap-in path and must degrade monotonically with
 * the ratio.
 */

#include <cstdio>
#include <optional>
#include <vector>

#include "bench/common.hh"
#include "cpu/guest_view.hh"
#include "elisa/gate.hh"
#include "hv/paging.hh"
#include "sim/histogram.hh"
#include "sim/zipf.hh"

namespace
{

using namespace elisa;
using namespace elisa::bench;

constexpr std::uint64_t objectBytes = 256 * KiB;
constexpr std::uint64_t objectPages = objectBytes / pageSize;
constexpr std::uint64_t opsPerCell = 20000;
constexpr double zipfSkew = 0.99;
constexpr std::uint64_t vmcallReadNr = 0x900;

/** Overcommit ratios swept (managed pages / resident budget). */
const std::vector<double> ratios = {1.0, 1.5, 2.0, 3.0};

enum class Scheme
{
    Elisa,   ///< exit-less gate call into the shared object
    Vmcall,  ///< VMCALL; the host touches and reads on behalf
    Ivshmem, ///< object pages mapped straight into the guest
};

const char *
schemeName(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Elisa:
        return "elisa";
      case Scheme::Vmcall:
        return "vmcall";
      case Scheme::Ivshmem:
        return "ivshmem";
    }
    return "?";
}

/** Result of one (scheme, ratio) cell. */
struct CellResult
{
    double meanNs = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t faults = 0;
    std::uint64_t swapIns = 0;
};

/**
 * Run one cell: a fresh machine, the object demand-paged under a
 * budget of objectPages/ratio frames, opsPerCell zipfian touches.
 */
CellResult
runCell(Scheme scheme, double ratio)
{
    Testbed bed;
    const std::uint64_t budget = static_cast<std::uint64_t>(
        static_cast<double>(objectPages) / ratio);
    hv::Pager &pager = bed.hv.enablePaging(
        {/*residentLimitFrames=*/budget,
         /*swapSlots=*/objectPages * 2});

    core::SharedFnTable fns;
    fns.push_back([](core::SubCallCtx &ctx) { // 0: read64
        return ctx.view.read<std::uint64_t>(ctx.obj + ctx.arg0);
    });
    auto exported = bed.manager.exportObject(core::ExportKey("obj"),
                                             objectBytes,
                                             std::move(fns));
    fatal_if(!exported, "export failed");
    const Hpa objHpa = bed.managerVm.ramGpaToHpa(exported->objectGpa);
    pager.manageObject(bed.managerVm, objHpa, objectBytes, true);

    // Warm: the manager populates every page (faulting them in and,
    // once the budget binds, swapping the cold tail back out).
    cpu::GuestView mview(bed.managerVm.vcpu(0));
    for (std::uint64_t page = 0; page < objectPages; ++page)
        mview.write<std::uint64_t>(exported->objectGpa +
                                       page * pageSize,
                                   0x0bec0000 + page);

    hv::Vm &guest_vm = bed.addGuest("guest");
    core::ElisaGuest guest(guest_vm, bed.svc);
    cpu::Vcpu &cpu = guest_vm.vcpu(0);

    // Per-scheme access setup.
    std::optional<core::Gate> gate;
    constexpr Gpa winGpa = 1 * GiB; // direct window, above guest RAM
    if (scheme == Scheme::Elisa) {
        gate = mustAttach(guest, core::ExportKey("obj"), bed.manager);
    } else if (scheme == Scheme::Vmcall) {
        bed.hv.registerHypercall(
            vmcallReadNr,
            [&pager, &bed, objHpa](cpu::Vcpu &caller,
                                   const cpu::HypercallArgs &args) {
                // Host interposition: page the target in (service
                // billed to the caller; the exit itself is charged by
                // the VMCALL) and read on its behalf.
                if (!pager.hostTouch(caller, objHpa + args.arg0, 8))
                    return hv::hcError;
                return bed.hv.memory().read64(objHpa + args.arg0);
            });
    } else {
        const bool mapped = guest_vm.defaultEpt().mapRange(
            winGpa, objHpa, objectBytes, ept::Perms::Read);
        fatal_if(!mapped, "direct window collided");
        pager.addMirror(guest_vm.defaultEpt(), winGpa, objHpa,
                        objectBytes);
    }

    sim::Rng rng(0x0cc0 + static_cast<std::uint64_t>(ratio * 10));
    sim::Zipf zipf(objectPages, zipfSkew);
    sim::Histogram latency(6, 1ull << 32);
    cpu::GuestView gview(cpu);
    double total_ns = 0;

    const auto touch = [&](std::uint64_t page) {
        const std::uint64_t off = page * pageSize;
        std::uint64_t value = 0;
        switch (scheme) {
          case Scheme::Elisa:
            value = gate->call(0, off);
            break;
          case Scheme::Vmcall: {
            cpu::HypercallArgs args;
            args.nr = vmcallReadNr;
            args.arg0 = off;
            value = cpu.vmcall(args);
            break;
          }
          case Scheme::Ivshmem:
            value = gview.read<std::uint64_t>(winGpa + off);
            break;
        }
        fatal_if(value != 0x0bec0000 + page,
                 "scheme %s read garbage at page %llu",
                 schemeName(scheme), (unsigned long long)page);
    };

    // Unmeasured warm-up: touch every page once so the L0 micro-cache
    // and the resident set reach steady state; the measured stream
    // then prices paging under the budget, not the cold first touch.
    for (std::uint64_t page = 0; page < objectPages; ++page)
        touch(page);

    const std::uint64_t faults0 = bed.hv.stats().get("pager_faults");
    const std::uint64_t ins0 =
        bed.hv.stats().get("pager_pages_swapped_in");

    for (std::uint64_t op = 0; op < opsPerCell; ++op) {
        const std::uint64_t page =
            sim::Zipf::spreadRank(zipf.sample(rng), objectPages);
        const SimNs t0 = cpu.clock().now();
        touch(page);
        const SimNs dt = cpu.clock().now() - t0;
        latency.record(dt);
        total_ns += static_cast<double>(dt);
    }

    CellResult result;
    result.meanNs = total_ns / static_cast<double>(opsPerCell);
    result.p50 = latency.p50();
    result.p99 = latency.p99();
    result.faults = bed.hv.stats().get("pager_faults") - faults0;
    result.swapIns =
        bed.hv.stats().get("pager_pages_swapped_in") - ins0;
    return result;
}

} // namespace

namespace elisa::bench
{

void
overcommit()
{
    BenchReport report("overcommit");
    TextTable table;
    table.header({"Scheme", "Ratio", "Mean [ns]", "p50 [ns]",
                  "p99 [ns]", "Faults", "Swap-ins"});

    bool monotonic = true;
    for (const Scheme scheme :
         {Scheme::Elisa, Scheme::Vmcall, Scheme::Ivshmem}) {
        std::uint64_t prev_p99 = 0;
        for (const double ratio : ratios) {
            const CellResult cell = runCell(scheme, ratio);
            table.row({schemeName(scheme),
                       detail::format("%.1f", ratio),
                       detail::format("%.1f", cell.meanNs),
                       detail::format("%llu",
                                      (unsigned long long)cell.p50),
                       detail::format("%llu",
                                      (unsigned long long)cell.p99),
                       detail::format("%llu",
                                      (unsigned long long)cell.faults),
                       detail::format(
                           "%llu",
                           (unsigned long long)cell.swapIns)});

            const std::string prefix =
                std::string(schemeName(scheme)) + "_r" +
                detail::format("%02d", (int)(ratio * 10));
            // The percentiles are P1's claim (p50 at the scheme's
            // base cost, p99 growing with the ratio), so they are
            // what the gate checks; the mean, fault and swap-in
            // columns stay in the table/CSV.
            report.set(prefix + "_p50_ns",
                       static_cast<double>(cell.p50));
            report.set(prefix + "_p99_ns",
                       static_cast<double>(cell.p99));

            if (cell.p99 < prev_p99)
                monotonic = false;
            prev_p99 = cell.p99;
        }
    }
    std::printf("%s\n", table.render().c_str());
    saveCsv(table, "P1_overcommit");

    // The paging tax must grow with the overcommit ratio under every
    // scheme — the gate that P1 exists to hold.
    std::printf("  [check] p99 monotone in overcommit ratio: %s\n",
                monotonic ? "yes" : "NO — REGRESSION");
    report.set("p99_monotonic", monotonic ? 1.0 : 0.0);
    fatal_if(!monotonic, "p99 did not degrade monotonically");
}

} // namespace elisa::bench
