/**
 * @file
 * Shared driver for the memcached latency figures (F6 / F7): sweeps
 * the offered load per scheme and prints the p99-vs-throughput series
 * (the hockey-stick curves of the paper's application benchmark).
 */

#ifndef ELISA_BENCH_MC_COMMON_HH
#define ELISA_BENCH_MC_COMMON_HH

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/common.hh"
#include "memcached/loadgen.hh"

namespace elisa::bench
{

/** Requests per load point (plus warm-up). */
inline constexpr std::uint64_t mcRequests = 12000;

/** Key space of the memcached store. */
inline constexpr std::uint64_t mcKeySpace = 4096;

/**
 * Run one scheme's latency/throughput curve.
 * @return the last point before saturation blow-up (p99 <= 300 us),
 *         used for cross-scheme checks.
 */
inline memcached::LoadPoint
runMcCurve(const char *scheme, net::NetPath &path, hv::Hypervisor &hv,
           hv::Vm &server_vm, double set_ratio,
           const std::vector<double> &loads_krps, TextTable &table)
{
    memcached::Server server(hv, server_vm, path);
    net::PhysNic nic(hv.cost());
    // Populate the store so GETs hit.
    {
        net::PhysNic warm_nic(hv.cost());
        memcached::runLoadPoint(server, warm_nic, 100e3, mcKeySpace,
                                1.0, mcKeySpace, 3);
    }

    memcached::LoadPoint best;
    for (double krps : loads_krps) {
        auto p = memcached::runLoadPoint(server, nic, krps * 1e3,
                                         mcRequests, set_ratio,
                                         mcKeySpace);
        table.row({scheme, detail::format("%.0f", krps),
                   detail::format("%.1f", p.achievedKrps()),
                   detail::format("%.1f", (double)p.p50 / 1e3),
                   detail::format("%.1f", p.p99Us())});
        if (p.p99Us() <= 300.0)
            best = p;
    }
    return best;
}

} // namespace elisa::bench

#endif // ELISA_BENCH_MC_COMMON_HH
