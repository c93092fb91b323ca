/**
 * @file
 * bench_check — the bench-regression gate.
 *
 * Benches emit deterministic `BENCH_<name>.json` reports (see
 * bench::BenchReport). This tool compares every report in a baseline
 * directory against the freshly generated ones and fails when any
 * metric deviates beyond the noise threshold — in EITHER direction:
 * the simulator is deterministic, so an unexplained "improvement" is
 * just as much a model change as a regression, and both mean the
 * committed baselines need a deliberate re-bless.
 *
 *   bench_check [--baselines DIR] [--current DIR] [--tolerance PCT]
 *               [--quick-tolerance PCT] [--wall-tolerance PCT]
 *
 * Defaults: baselines bench_results/baselines, current bench_results,
 * tolerance 2 %, quick-tolerance 5 % (applied when one side ran with
 * ELISA_BENCH_QUICK and the other did not — trimmed iteration counts
 * shift amortized warmup slightly).
 *
 * Metrics whose key starts with "wall_" are host wall-clock derived
 * (sim/wall ratios, host throughput): inherently noisy and
 * machine-dependent, so they get their own generous tolerance
 * (--wall-tolerance, default 60 %) and are gated one-sided — only a
 * drop below baseline fails; running on a faster or wider box passes.
 *
 * Exit codes: 0 all metrics within tolerance; 1 regression (or a
 * baseline bench that was not run); 2 usage or I/O error.
 */

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace
{

namespace fs = std::filesystem;

/** One parsed BENCH_<name>.json report. */
struct Report
{
    std::string bench;
    bool quick = false;
    std::map<std::string, double> metrics;
};

/**
 * Minimal parser for the restricted BenchReport grammar: one object
 * with a "bench" string, a "quick" bool and a flat "metrics" object
 * of numbers. Anything else is a malformed report.
 */
class Parser
{
  public:
    explicit Parser(std::string text) : text(std::move(text)) {}

    std::optional<Report>
    parse()
    {
        Report report;
        if (!expect('{'))
            return std::nullopt;
        bool first = true;
        while (true) {
            skipWs();
            if (peek() == '}') {
                ++pos;
                break;
            }
            if (!first && !expect(','))
                return std::nullopt;
            first = false;
            auto key = parseString();
            if (!key || !expect(':'))
                return std::nullopt;
            if (*key == "bench") {
                auto value = parseString();
                if (!value)
                    return std::nullopt;
                report.bench = *value;
            } else if (*key == "quick") {
                auto value = parseBool();
                if (!value)
                    return std::nullopt;
                report.quick = *value;
            } else if (*key == "metrics") {
                if (!parseMetrics(report.metrics))
                    return std::nullopt;
            } else {
                return std::nullopt;
            }
        }
        skipWs();
        return pos == text.size() ? std::optional(report) : std::nullopt;
    }

  private:
    void
    skipWs()
    {
        while (pos < text.size() && std::isspace((unsigned char)text[pos]))
            ++pos;
    }

    char
    peek()
    {
        return pos < text.size() ? text[pos] : '\0';
    }

    bool
    expect(char c)
    {
        skipWs();
        if (peek() != c)
            return false;
        ++pos;
        return true;
    }

    std::optional<std::string>
    parseString()
    {
        if (!expect('"'))
            return std::nullopt;
        std::string out;
        while (pos < text.size() && text[pos] != '"') {
            if (text[pos] == '\\' && pos + 1 < text.size())
                ++pos;
            out += text[pos++];
        }
        if (pos == text.size())
            return std::nullopt;
        ++pos; // closing quote
        return out;
    }

    std::optional<bool>
    parseBool()
    {
        skipWs();
        if (text.compare(pos, 4, "true") == 0) {
            pos += 4;
            return true;
        }
        if (text.compare(pos, 5, "false") == 0) {
            pos += 5;
            return false;
        }
        return std::nullopt;
    }

    std::optional<double>
    parseNumber()
    {
        skipWs();
        const char *start = text.c_str() + pos;
        char *end = nullptr;
        const double value = std::strtod(start, &end);
        if (end == start)
            return std::nullopt;
        pos += (std::size_t)(end - start);
        return value;
    }

    bool
    parseMetrics(std::map<std::string, double> &out)
    {
        if (!expect('{'))
            return false;
        bool first = true;
        while (true) {
            skipWs();
            if (peek() == '}') {
                ++pos;
                return true;
            }
            if (!first && !expect(','))
                return false;
            first = false;
            auto key = parseString();
            if (!key || !expect(':'))
                return false;
            auto value = parseNumber();
            if (!value)
                return false;
            out[*key] = *value;
        }
    }

    std::string text;
    std::size_t pos = 0;
};

std::optional<Report>
loadReport(const fs::path &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    return Parser(buf.str()).parse();
}

bool
isBenchJson(const fs::path &path)
{
    const std::string name = path.filename().string();
    return name.rfind("BENCH_", 0) == 0 &&
           path.extension() == ".json";
}

double
parsePct(const char *arg)
{
    char *end = nullptr;
    const double value = std::strtod(arg, &end);
    if (end == arg || *end != '\0' || value < 0.0) {
        std::fprintf(stderr, "bench_check: bad percentage '%s'\n", arg);
        std::exit(2);
    }
    return value;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string baseline_dir = "bench_results/baselines";
    std::string current_dir = "bench_results";
    double tolerance_pct = 2.0;
    double quick_tolerance_pct = 5.0;
    double wall_tolerance_pct = 60.0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "bench_check: %s needs an argument\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--baselines") {
            baseline_dir = next();
        } else if (arg == "--current") {
            current_dir = next();
        } else if (arg == "--tolerance") {
            tolerance_pct = parsePct(next());
        } else if (arg == "--quick-tolerance") {
            quick_tolerance_pct = parsePct(next());
        } else if (arg == "--wall-tolerance") {
            wall_tolerance_pct = parsePct(next());
        } else {
            std::fprintf(
                stderr,
                "usage: bench_check [--baselines DIR] [--current DIR]"
                " [--tolerance PCT] [--quick-tolerance PCT]"
                " [--wall-tolerance PCT]\n");
            return 2;
        }
    }

    std::error_code ec;
    if (!fs::is_directory(baseline_dir, ec)) {
        std::fprintf(stderr,
                     "bench_check: baseline directory '%s' missing\n",
                     baseline_dir.c_str());
        return 2;
    }

    std::vector<fs::path> baselines;
    for (const auto &entry : fs::directory_iterator(baseline_dir)) {
        if (entry.is_regular_file() && isBenchJson(entry.path()))
            baselines.push_back(entry.path());
    }
    std::sort(baselines.begin(), baselines.end());
    if (baselines.empty()) {
        std::fprintf(stderr, "bench_check: no BENCH_*.json in '%s'\n",
                     baseline_dir.c_str());
        return 2;
    }

    unsigned checked = 0;
    unsigned failures = 0;
    for (const fs::path &base_path : baselines) {
        const auto base = loadReport(base_path);
        if (!base) {
            std::fprintf(stderr, "bench_check: malformed baseline %s\n",
                         base_path.string().c_str());
            return 2;
        }
        const fs::path cur_path =
            fs::path(current_dir) / base_path.filename();
        const auto cur = loadReport(cur_path);
        if (!cur) {
            std::printf("FAIL %-16s missing or malformed current report"
                        " (%s)\n",
                        base->bench.c_str(),
                        cur_path.string().c_str());
            ++failures;
            continue;
        }
        const double tol = base->quick != cur->quick
                               ? std::max(tolerance_pct,
                                          quick_tolerance_pct)
                               : tolerance_pct;
        for (const auto &[key, want] : base->metrics) {
            ++checked;
            const auto it = cur->metrics.find(key);
            if (it == cur->metrics.end()) {
                std::printf("FAIL %-16s %-32s missing from current "
                            "report\n",
                            base->bench.c_str(), key.c_str());
                ++failures;
                continue;
            }
            const double got = it->second;
            const double dev_pct =
                want == 0.0 ? (got == 0.0 ? 0.0 : 100.0)
                            : (got - want) / std::fabs(want) * 100.0;
            const bool wall = key.rfind("wall_", 0) == 0;
            const bool bad = wall
                                 ? -dev_pct > wall_tolerance_pct
                                 : std::fabs(dev_pct) > tol;
            if (bad) {
                std::printf("FAIL %-16s %-32s baseline=%.6g got=%.6g "
                            "(%+.2f%% > %s%.1f%%)\n",
                            base->bench.c_str(), key.c_str(), want, got,
                            dev_pct, wall ? "-" : "±",
                            wall ? wall_tolerance_pct : tol);
                ++failures;
            } else {
                std::printf("  ok %-16s %-32s baseline=%.6g got=%.6g "
                            "(%+.2f%%%s)\n",
                            base->bench.c_str(), key.c_str(), want, got,
                            dev_pct, wall ? ", wall" : "");
            }
        }
        for (const auto &[key, value] : cur->metrics) {
            if (!base->metrics.count(key)) {
                std::printf("WARN %-16s %-32s new metric (%.6g) has no "
                            "baseline — re-bless baselines\n",
                            cur->bench.c_str(), key.c_str(), value);
            }
        }
    }

    std::printf("bench_check: %u metric(s) checked, %u failure(s)\n",
                checked, failures);
    return failures == 0 ? 0 : 1;
}
