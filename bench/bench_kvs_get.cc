/**
 * @file
 * Experiment F1 — in-memory KVS GET throughput vs number of VMs
 * (paper: ELISA +64 % over VMCALL; ivshmem fastest, near-linear
 * scaling to ~14 Mops/s at 8 VMs).
 */

#include "bench/kvs_common.hh"

namespace elisa::bench
{

void
kvsGet()
{
    const KvsPoint p = runKvsFigure(kvs::Mix::GetOnly, "F1_kvs_get");
    paperCheck("ELISA GET gain over VMCALL @8 VMs",
               (p.elisa - p.vmcall) / p.vmcall * 100.0, 64.0, "%");
    paperCheck("ivshmem GET @8 VMs", p.direct, 13.6, "Mops/s");
}

} // namespace elisa::bench
