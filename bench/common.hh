/**
 * @file
 * Shared scaffolding for the figure/table benches: a standard testbed
 * (machine + ELISA service + manager VM) and uniform report printing,
 * so every experiment output looks the same and always states the
 * cost-model calibration it ran under.
 */

#ifndef ELISA_BENCH_COMMON_HH
#define ELISA_BENCH_COMMON_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "base/logging.hh"
#include "base/strutil.hh"
#include "base/units.hh"
#include "elisa/guest_api.hh"
#include "elisa/manager.hh"
#include "elisa/negotiation.hh"
#include "hv/hypervisor.hh"

namespace elisa::bench
{

/** A machine with an ELISA service and a manager VM, ready to go. */
struct Testbed
{
    explicit Testbed(std::uint64_t phys_bytes = 1536 * MiB,
                     const sim::CostModel &cost = sim::CostModel{})
        : hv(phys_bytes, cost), svc(hv),
          managerVm(hv.createVm("manager", 128 * MiB)),
          manager(managerVm, svc)
    {
    }

    /** Add a guest VM with the standard size. */
    hv::Vm &
    addGuest(const std::string &name, std::uint64_t ram = 32 * MiB)
    {
        return hv.createVm(name, ram);
    }

    hv::Hypervisor hv;
    core::ElisaService svc;
    hv::Vm &managerVm;
    core::ElisaManager manager;
};

/**
 * Attach or die: the bench equivalent of the old attach()+fatal_if
 * pair; the failure message carries the AttachResult's status and
 * reason instead of a bare "attach failed".
 */
inline core::Gate
mustAttach(core::ElisaGuest &guest, const core::ExportKey &key,
           core::ElisaManager &manager)
{
    core::AttachResult attached = guest.tryAttach(key, manager);
    fatal_if(!attached, "attach to '%s' failed (%s): %s",
             key.name().c_str(),
             core::attachStatusToString(attached.status()),
             attached.reason().c_str());
    return attached.take();
}

/** mustAttach, also handing back the capability behind the gate. */
inline std::pair<core::Gate, core::Capability>
mustAttachWithCapability(core::ElisaGuest &guest,
                         const core::ExportKey &key,
                         core::ElisaManager &manager)
{
    core::AttachResult attached = guest.tryAttach(key, manager);
    fatal_if(!attached, "attach to '%s' failed (%s): %s",
             key.name().c_str(),
             core::attachStatusToString(attached.status()),
             attached.reason().c_str());
    core::Capability cap = attached.capability();
    return {attached.take(), cap};
}

/**
 * Exit with status 2 and a usage line if any argument was given. The
 * figure benches take no flags (ELISA_BENCH_QUICK=1 selects the
 * reduced sweep), so an ignored flag would silently run another sweep
 * than the one asked for.
 */
inline void
requireNoArgs(int argc, char **argv)
{
    if (argc <= 1)
        return;
    std::fprintf(stderr,
                 "%s: unknown argument '%s'\n"
                 "usage: %s   (takes no arguments; set "
                 "ELISA_BENCH_QUICK=1 for the reduced sweep)\n",
                 argv[0], argv[1], argv[0]);
    std::exit(2);
}

/**
 * Scale an iteration/packet/op count down when ELISA_BENCH_QUICK is
 * set in the environment (smoke runs, CI): one tenth of the full
 * count, floored at 2000 so percentiles stay meaningful.
 */
inline std::uint64_t
scaledCount(std::uint64_t full)
{
    if (std::getenv("ELISA_BENCH_QUICK") == nullptr)
        return full;
    const std::uint64_t reduced = full / 10;
    return reduced < 2000 ? std::min<std::uint64_t>(full, 2000)
                          : reduced;
}

/** Print the standard experiment banner. */
inline void
banner(const char *exp_id, const char *title)
{
    const char *rule = "==================================================="
                       "===========";
    std::printf("%s\n%s: %s\n%s\n%s\n", rule, exp_id, title,
                sim::CostModel{}.summary().c_str(), rule);
}

/**
 * Save a figure's data as CSV under bench_results/ (next to the
 * working directory), so the series can be re-plotted without
 * scraping stdout. Failures to write are reported but non-fatal.
 */
inline void
saveCsv(const TextTable &table, const char *exp_id)
{
    std::error_code ec;
    std::filesystem::create_directories("bench_results", ec);
    const std::string path =
        std::string("bench_results/") + exp_id + ".csv";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("could not write %s", path.c_str());
        return;
    }
    const std::string csv = table.renderCsv();
    std::fwrite(csv.data(), 1, csv.size(), f);
    std::fclose(f);
    std::printf("  [csv] series saved to %s\n", path.c_str());
}

/**
 * Machine-readable bench result for the regression gate.
 *
 * Each bench records its headline scalars under stable key names and
 * writes them as `bench_results/BENCH_<name>.json` on destruction (or
 * an explicit save()). The JSON is deterministic — keys are sorted,
 * integral values print with no fraction, everything else as %.6g —
 * so identical runs produce byte-identical files and
 * tools/bench_check can diff them against the committed baselines in
 * bench_results/baselines/. A "quick" flag records whether
 * ELISA_BENCH_QUICK trimmed the iteration counts, so the gate never
 * silently compares a smoke run against a full-count baseline.
 */
class BenchReport
{
  public:
    explicit BenchReport(std::string bench_name)
        : benchName(std::move(bench_name)),
          quick(std::getenv("ELISA_BENCH_QUICK") != nullptr)
    {
    }

    BenchReport(const BenchReport &) = delete;
    BenchReport &operator=(const BenchReport &) = delete;

    ~BenchReport() { save(); }

    /** Record one scalar; re-recording a key overwrites it. */
    void
    set(const std::string &key, double value)
    {
        values[key] = value;
    }

    /** Render the deterministic JSON document. */
    std::string
    json() const
    {
        std::string out = "{\n";
        out += "  \"bench\": \"" + benchName + "\",\n";
        out += std::string("  \"quick\": ") +
               (quick ? "true" : "false") + ",\n";
        out += "  \"metrics\": {";
        bool first = true;
        for (const auto &[key, value] : values) {
            out += first ? "\n" : ",\n";
            first = false;
            out += "    \"" + key + "\": " + formatValue(value);
        }
        out += values.empty() ? "}\n" : "\n  }\n";
        out += "}\n";
        return out;
    }

    /** Write bench_results/BENCH_<name>.json (idempotent). */
    void
    save()
    {
        if (saved)
            return;
        saved = true;
        std::error_code ec;
        std::filesystem::create_directories("bench_results", ec);
        const std::string path =
            "bench_results/BENCH_" + benchName + ".json";
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            warn("could not write %s", path.c_str());
            return;
        }
        const std::string doc = json();
        std::fwrite(doc.data(), 1, doc.size(), f);
        std::fclose(f);
        std::printf("  [json] bench report saved to %s\n", path.c_str());
    }

  private:
    static std::string
    formatValue(double value)
    {
        if (std::isfinite(value) && value == std::floor(value) &&
            std::fabs(value) < 9.007199254740992e15) {
            return detail::format("%lld", (long long)value);
        }
        return detail::format("%.6g", value);
    }

    std::string benchName;
    bool quick;
    bool saved = false;
    std::map<std::string, double> values;
};

/** Print one paper-vs-measured check line. */
inline void
paperCheck(const char *what, double measured, double paper,
           const char *unit)
{
    const double dev =
        paper == 0.0 ? 0.0 : (measured - paper) / paper * 100.0;
    std::printf("  [paper-check] %-44s measured=%.2f %s  paper=%.2f %s"
                "  (%+.1f%%)\n",
                what, measured, unit, paper, unit, dev);
}

} // namespace elisa::bench

#endif // ELISA_BENCH_COMMON_HH
