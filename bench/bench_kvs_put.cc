/**
 * @file
 * Experiment F2 — in-memory KVS PUT throughput vs number of VMs
 * (paper: ELISA +54 % over VMCALL; bucket-lock writes make PUT
 * heavier than GET across all schemes).
 */

#include "bench/kvs_common.hh"

namespace elisa::bench
{

void
kvsPut()
{
    const KvsPoint p = runKvsFigure(kvs::Mix::PutOnly, "F2_kvs_put");
    paperCheck("ELISA PUT gain over VMCALL @8 VMs",
               (p.elisa - p.vmcall) / p.vmcall * 100.0, 54.0, "%");
}

} // namespace elisa::bench
