/**
 * @file
 * Experiment C1 — sharded KVS cluster: p99 latency vs achieved
 * throughput for the three sharing schemes (ELISA sub-EPT gates,
 * VMCALL hypercalls, direct ivshmem mapping), cluster-scale.
 *
 * Three server machines behind a seeded consistent-hash ring serve a
 * zipfian (s = 0.99) open-loop load from their log-structured shm
 * stores; each PUT replicates synchronously to a replica store before
 * it acks. The per-op scheme cost — two gate transitions vs two
 * hypercalls vs none — multiplies across the replication fan-out, so
 * the cluster curves separate harder than the single-table ones (F1).
 */

#include "bench/common.hh"
#include "kvs/cluster.hh"

namespace
{

using namespace elisa;
using namespace elisa::bench;

kvs::KvsCluster
makeCluster(kvs::ClusterScheme scheme)
{
    kvs::ClusterConfig cfg;
    cfg.servers = 3;
    cfg.scheme = scheme;
    cfg.buckets = 2048;
    cfg.logSlots = 32768;
    return kvs::KvsCluster(cfg);
}

} // namespace

namespace elisa::bench
{

void
kvsCluster()
{
    constexpr std::uint64_t key_space = 4000;
    constexpr std::uint64_t requests = 6000;
    const std::vector<double> loads_rps = {100e3, 300e3, 500e3,
                                           700e3, 900e3};

    TextTable table;
    table.header({"Scheme", "Offered [Krps]", "Achieved [Krps]",
                  "p50 [us]", "p99 [us]", "Remote [%]"});

    BenchReport report("kvs_cluster");
    double elisa_p50 = 0, vmcall_p50 = 0;
    for (const auto scheme :
         {kvs::ClusterScheme::Elisa, kvs::ClusterScheme::Vmcall,
          kvs::ClusterScheme::Direct}) {
        kvs::KvsCluster cluster = makeCluster(scheme);
        cluster.prepopulate(key_space);
        bool first_point = true;
        for (const double rps : loads_rps) {
            const kvs::ClusterLoadResult r = cluster.runLoad(
                /*clients_per_server=*/1,
                /*offered_rps_per_client=*/rps,
                /*requests_per_client=*/requests,
                /*put_ratio=*/0.1, key_space, /*zipf_s=*/0.99,
                /*seed=*/17);
            fatal_if(r.corrupt != 0 || r.failed != 0,
                     "cluster served wrong data under load");
            const double total_offered =
                rps * cluster.serverCount() / 1e3;
            table.row({clusterSchemeToString(scheme),
                       detail::format("%.0f", total_offered),
                       detail::format("%.1f", r.achievedRps / 1e3),
                       detail::format("%.2f",
                                      (double)r.latency.percentile(0.5) /
                                          1e3),
                       detail::format("%.2f",
                                      (double)r.latency.percentile(0.99) /
                                          1e3),
                       detail::format("%.1f",
                                      100.0 * (double)r.remote /
                                          (double)r.ops)});
            if (first_point) {
                // Uncontested-load metrics are count-stable: the p50
                // is the deterministic per-op cost stack, the remote
                // fraction is the ring split — both safe to gate.
                first_point = false;
                const std::string prefix =
                    scheme == kvs::ClusterScheme::Elisa ? "elisa"
                    : scheme == kvs::ClusterScheme::Vmcall
                        ? "vmcall"
                        : "direct";
                const double p50 =
                    (double)r.latency.percentile(0.5);
                report.set(prefix + "_uncontested_p50_ns", p50);
                report.set(prefix + "_remote_frac",
                           (double)r.remote / (double)r.ops);
                if (scheme == kvs::ClusterScheme::Elisa)
                    elisa_p50 = p50;
                if (scheme == kvs::ClusterScheme::Vmcall)
                    vmcall_p50 = p50;
            }
        }
    }
    report.set("vmcall_over_elisa_uncontested_p50",
               vmcall_p50 / elisa_p50);

    std::printf("%s\n", table.render().c_str());
    saveCsv(table, "C1_kvs_cluster");
    // One KVS op crosses its scheme's boundary once, so the cluster
    // p50 gap must reproduce the calibrated RTT gap (699 - 196 ns).
    paperCheck("cluster p50 gap vs RTT gap (VMCALL-ELISA)",
               vmcall_p50 - elisa_p50, 503.0, "ns");
}

} // namespace elisa::bench
