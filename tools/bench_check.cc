/**
 * @file
 * bench_check — the bench-regression gate.
 *
 * `elisa_bench` entries emit deterministic `BENCH_<name>.json` reports
 * (see bench::BenchReport). This tool compares every report in a
 * baseline directory against the freshly generated one of the same
 * name:
 *
 *   bench_check [--baselines DIR] [--current DIR]
 *
 * Defaults: baselines bench_results/baselines, current bench_results.
 *
 * Every metric must equal its baseline exactly: the simulator is
 * deterministic and both sides are full runs, so any difference, in
 * EITHER direction, is a model change that needs a deliberate
 * re-bless of the committed baselines. The one exception is a metric
 * whose key starts with "wall_": it is derived from the host's wall
 * clock (sim/wall ratios, host throughput), so it is gated one-sided
 * — it fails only when it falls more than 60 % below its baseline,
 * and a faster or wider box passes.
 *
 * Exit codes: 0 every metric passes; 1 a metric fails, or a baseline
 * metric or report is missing from the current run; 2 usage error or
 * an unreadable or malformed report.
 */

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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
    std::map<std::string, double> metrics;
};

/**
 * Minimal parser for the restricted BenchReport grammar: one object
 * with a "bench" string and a flat "metrics" object of numbers.
 * Anything else is a malformed report.
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

/** A wall_ metric fails more than this many percent below baseline. */
constexpr double wallFloorPct = 60.0;

/** Load @p path, or exit 2 if it does not parse as a report. */
Report
mustLoad(const fs::path &path)
{
    std::optional<Report> report = loadReport(path);
    if (!report) {
        std::fprintf(stderr, "bench_check: unreadable or malformed "
                             "report %s\n",
                     path.string().c_str());
        std::exit(2);
    }
    return *report;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string baseline_dir = "bench_results/baselines";
    std::string current_dir = "bench_results";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--baselines" && i + 1 < argc) {
            baseline_dir = argv[++i];
        } else if (arg == "--current" && i + 1 < argc) {
            current_dir = argv[++i];
        } else {
            std::fprintf(stderr, "usage: bench_check [--baselines DIR]"
                                 " [--current DIR]\n");
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
        const Report base = mustLoad(base_path);
        const fs::path cur_path =
            fs::path(current_dir) / base_path.filename();
        if (!fs::exists(cur_path, ec)) {
            std::printf("FAIL %-16s missing current report (%s)\n",
                        base.bench.c_str(), cur_path.string().c_str());
            ++failures;
            continue;
        }
        const Report cur = mustLoad(cur_path);
        for (const auto &[key, want] : base.metrics) {
            ++checked;
            const auto it = cur.metrics.find(key);
            if (it == cur.metrics.end()) {
                std::printf("FAIL %-16s %-32s missing from current "
                            "report\n",
                            base.bench.c_str(), key.c_str());
                ++failures;
                continue;
            }
            const double got = it->second;
            const double dev_pct =
                want == 0.0 ? (got == 0.0 ? 0.0 : 100.0)
                            : (got - want) / std::fabs(want) * 100.0;
            const bool wall = key.rfind("wall_", 0) == 0;
            const bool bad = wall ? -dev_pct > wallFloorPct : got != want;
            std::printf("%s %-16s %-32s baseline=%.15g got=%.15g "
                        "(%+.2f%%%s)\n",
                        bad ? "FAIL" : "  ok", base.bench.c_str(),
                        key.c_str(), want, got, dev_pct,
                        wall ? ", wall" : "");
            if (bad)
                ++failures;
        }
        for (const auto &[key, value] : cur.metrics) {
            if (!base.metrics.count(key)) {
                std::printf("WARN %-16s %-32s new metric (%.15g) has no "
                            "baseline — re-bless baselines\n",
                            cur.bench.c_str(), key.c_str(), value);
            }
        }
    }

    std::printf("bench_check: %u metric(s) checked, %u failure(s)\n",
                checked, failures);
    return failures == 0 ? 0 : 1;
}
