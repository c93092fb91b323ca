/**
 * @file
 * Shared scaffolding for the elisa_bench entries: a standard testbed
 * (machine + ELISA service + manager VM), attach helpers, and the
 * CSV, JSON-report and paper-check writers every entry reports
 * through, so every experiment output looks the same.
 */

#ifndef ELISA_BENCH_COMMON_HH
#define ELISA_BENCH_COMMON_HH

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
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
 * Write @p text to bench_results/@p name (next to the working
 * directory) and return that path. An entry that cannot write its
 * output fails: an open, write or close error is fatal, so a stale
 * committed file is never mistaken for a fresh one.
 */
inline std::string
writeResult(const std::string &name, const std::string &text)
{
    std::error_code ec;
    std::filesystem::create_directories("bench_results", ec);
    const std::string path = "bench_results/" + name;
    std::FILE *f = std::fopen(path.c_str(), "w");
    fatal_if(!f, "could not open %s: %s", path.c_str(),
             std::strerror(errno));
    const bool written =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    fatal_if(std::fclose(f) != 0 || !written, "could not write %s",
             path.c_str());
    return path;
}

/**
 * Save a figure's data as bench_results/<exp_id>.csv, so the series
 * can be re-plotted without scraping stdout.
 */
inline void
saveCsv(const TextTable &table, const char *exp_id)
{
    const std::string path =
        writeResult(std::string(exp_id) + ".csv", table.renderCsv());
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
 * bench_results/baselines/.
 */
class BenchReport
{
  public:
    explicit BenchReport(std::string bench_name)
        : benchName(std::move(bench_name))
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
        const std::string path =
            writeResult("BENCH_" + benchName + ".json", json());
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
