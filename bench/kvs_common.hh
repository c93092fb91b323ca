/**
 * @file
 * Shared driver for the KVS scaling figures (F1 GET / F2 PUT):
 * builds per-scheme tables and clients for 1..8 VMs and prints the
 * Mops/s series the paper plots.
 *
 * Every VM-count point gets a fresh machine, tables, and clients:
 * simulated-time lock state must not leak between points (a stripe
 * marked busy at a previous round's far-future timestamp would stall
 * a fresh client).
 */

#ifndef ELISA_BENCH_KVS_COMMON_HH
#define ELISA_BENCH_KVS_COMMON_HH

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/common.hh"
#include "kvs/workload.hh"

namespace elisa::bench
{

/** Table geometry shared by every scheme. */
inline constexpr std::uint64_t kvsBuckets = 1 << 15;
inline constexpr std::uint64_t kvsKeySpace = 1 << 15;
inline constexpr unsigned kvsMaxVms = 8;
inline constexpr std::uint64_t kvsOpsPerClient = 30000;

/** Per-scheme aggregate Mops at one VM count. */
struct KvsPoint
{
    double direct = 0;
    double vmcall = 0;
    double elisa = 0;
};

/** Run all three schemes at @p n VMs on a fresh machine. */
inline KvsPoint
runKvsPoint(kvs::Mix mix, unsigned n)
{
    Testbed bed(3 * GiB / 2);
    std::vector<hv::Vm *> vms;
    for (unsigned i = 0; i < n; ++i)
        vms.push_back(&bed.addGuest("client" + std::to_string(i),
                                    16 * MiB));

    KvsPoint point;
    {
        kvs::DirectKvsTable table(bed.hv, kvsBuckets);
        kvs::prepopulate(table.hostIo(), kvsKeySpace);
        std::vector<std::unique_ptr<kvs::DirectKvsClient>> clients;
        std::vector<kvs::KvsClient *> ptrs;
        for (unsigned i = 0; i < n; ++i) {
            clients.push_back(std::make_unique<kvs::DirectKvsClient>(
                table, *vms[i]));
            ptrs.push_back(clients.back().get());
        }
        auto r = kvs::runKvsWorkload(ptrs, mix, kvsKeySpace,
                                     kvsOpsPerClient);
        fatal_if(r.corrupt || r.failed, "direct scheme misbehaved");
        point.direct = r.totalMops;
    }
    {
        kvs::VmcallKvsTable table(bed.hv, kvsBuckets);
        kvs::prepopulate(table.hostIo(), kvsKeySpace);
        std::vector<std::unique_ptr<kvs::VmcallKvsClient>> clients;
        std::vector<kvs::KvsClient *> ptrs;
        for (unsigned i = 0; i < n; ++i) {
            clients.push_back(std::make_unique<kvs::VmcallKvsClient>(
                table, *vms[i]));
            ptrs.push_back(clients.back().get());
        }
        auto r = kvs::runKvsWorkload(ptrs, mix, kvsKeySpace,
                                     kvsOpsPerClient);
        fatal_if(r.corrupt || r.failed, "vmcall scheme misbehaved");
        point.vmcall = r.totalMops;
    }
    {
        kvs::ElisaKvsTable table(bed.hv, bed.manager, "kv-fig",
                                 kvsBuckets);
        kvs::prepopulate(table.hostIo(), kvsKeySpace);
        std::vector<std::unique_ptr<core::ElisaGuest>> guests;
        std::vector<std::unique_ptr<kvs::ElisaKvsClient>> clients;
        std::vector<kvs::KvsClient *> ptrs;
        for (unsigned i = 0; i < n; ++i) {
            guests.push_back(
                std::make_unique<core::ElisaGuest>(*vms[i], bed.svc));
            clients.push_back(std::make_unique<kvs::ElisaKvsClient>(
                table, bed.manager, *guests.back()));
            ptrs.push_back(clients.back().get());
        }
        auto r = kvs::runKvsWorkload(ptrs, mix, kvsKeySpace,
                                     kvsOpsPerClient);
        fatal_if(r.corrupt || r.failed, "elisa scheme misbehaved");
        point.elisa = r.totalMops;
    }
    return point;
}

/**
 * Run the scaling sweep for one operation mix and print the figure.
 * @return the point at the max VM count, for the paper-check line.
 */
inline KvsPoint
runKvsFigure(kvs::Mix mix, const char *exp_id)
{
    TextTable table;
    table.header({"VMs", "ivshmem [Mops/s]", "VMCALL [Mops/s]",
                  "ELISA [Mops/s]", "ELISA vs VMCALL"});
    KvsPoint last;
    for (unsigned n = 1; n <= kvsMaxVms; ++n) {
        const KvsPoint p = runKvsPoint(mix, n);
        table.row({std::to_string(n),
                   detail::format("%.2f", p.direct),
                   detail::format("%.2f", p.vmcall),
                   detail::format("%.2f", p.elisa),
                   detail::format("%+.0f%%", (p.elisa - p.vmcall) /
                                                 p.vmcall * 100)});
        last = p;
    }
    std::printf("%s\n", table.render().c_str());
    saveCsv(table, exp_id);
    return last;
}

} // namespace elisa::bench

#endif // ELISA_BENCH_KVS_COMMON_HH
