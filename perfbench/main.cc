/**
 * @file
 * perfbench: host-cost benchmark of the ELISA simulator.
 *
 *   perfbench --workload NAME --seed N --seconds T --trace 0|1
 *             [--setup-only] [--spans-out FILE]
 *
 * Runs one workload in this process for a fixed amount of work
 * (T x the workload's slices per second) and prints, as the last line
 * of standard output, one JSON object: the digest, operations attempted
 * and failed, set-up seconds and the metrics of the mode (end-to-end
 * untraced, per-layer traced). perfbench/run.py builds and drives it.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "base/logging.hh"
#include "run.hh"

extern char **environ;

namespace
{

using namespace perfbench;

/** Environment knobs that change what the simulator does or prints. */
bool
pinnedVariable(std::string_view entry)
{
    const std::string_view name = entry.substr(0, entry.find('='));
    return name == "ELISA_SIM_THREADS" || name == "ELISA_BENCH_QUICK" ||
           name == "ELISA_TRACE" || name.substr(0, 11) == "ELISA_COST_";
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds T --trace 0|1 [--setup-only] "
                 "[--spans-out FILE]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *text, const char *flag)
{
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return value;
}

void
printNumber(double value)
{
    std::printf("%.17g", std::isfinite(value) ? value : 0.0);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const std::int64_t start = hostNowNs();

    for (char **env = environ; *env; ++env) {
        if (pinnedVariable(*env)) {
            std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                         *env);
            return 2;
        }
    }

    RunOptions opt;
    opt.startNs = start;
    std::string workload, spansOut;
    std::uint64_t seconds = 0;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--workload" && hasValue) {
            workload = argv[++i];
        } else if (arg == "--seed" && hasValue) {
            opt.seed = parseUnsigned(argv[++i], "--seed");
            haveSeed = true;
        } else if (arg == "--seconds" && hasValue) {
            seconds = parseUnsigned(argv[++i], "--seconds");
            haveSeconds = true;
        } else if (arg == "--trace" && hasValue) {
            const std::string_view v = argv[++i];
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            opt.trace = v == "1";
            haveTrace = true;
        } else if (arg == "--setup-only") {
            opt.setupOnly = true;
        } else if (arg == "--spans-out" && hasValue) {
            spansOut = argv[++i];
        } else {
            usage(("unknown or incomplete argument " + std::string(arg))
                      .c_str());
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace)
        usage("--seed, --seconds and --trace are required");
    if (seconds == 0 || seconds > 600)
        usage("--seconds must be 1..600");
    for (const WorkloadSpec &spec : workloads()) {
        if (workload == spec.name)
            opt.spec = &spec;
    }
    if (!opt.spec)
        usage(("unknown workload '" + workload + "'").c_str());
    opt.slices = seconds * opt.spec->slicesPerSecond;
    opt.dumpSpans = spansOut.empty() ? 0 : 200000;

    elisa::setQuiet(true);
    const RunResult res = run(opt);

    if (!res.sliceOps.empty()) {
        // Spread of the slice rates, for judging steadiness by eye.
        std::vector<double> rates;
        for (std::size_t i = 0; i < res.sliceOps.size(); ++i) {
            rates.push_back(static_cast<double>(res.sliceOps[i]) * 1e9 /
                            static_cast<double>(res.sliceNs[i]));
        }
        std::sort(rates.begin(), rates.end());
        const auto at = [&](double q) {
            return rates[static_cast<std::size_t>(q * (rates.size() - 1))];
        };
        std::fprintf(stderr,
                     "perfbench: %zu slices, ops/s min %.0f q1 %.0f "
                     "median %.0f q3 %.0f max %.0f; set-up %.3f s\n",
                     rates.size(), at(0), at(0.25), at(0.5), at(0.75),
                     at(1), res.setupSeconds);
    }

    if (!spansOut.empty() && !res.spanDump.empty()) {
        std::FILE *f = std::fopen(spansOut.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         spansOut.c_str());
            return 1;
        }
        std::fwrite(res.spanDump.data(), 1, res.spanDump.size(), f);
        std::fclose(f);
    }

    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"slices\": %llu, "
                "\"digest\": \"%016llx\", \"attempted\": %llu, "
                "\"failed\": %llu, \"setup_s\": ",
                opt.spec->name, static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(opt.setupOnly ? 0
                                                              : opt.slices),
                static_cast<unsigned long long>(res.digest),
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    printNumber(res.setupSeconds);
    std::printf(", \"metrics\": {");
    for (std::size_t i = 0; i < res.metrics.size(); ++i) {
        const Metric &m = res.metrics[i];
        std::printf("%s\"%s\": {\"value\": ", i ? ", " : "", m.name.c_str());
        printNumber(m.value);
        std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}
