/**
 * @file
 * Experiment F2 — in-memory KVS PUT throughput vs number of VMs
 * (paper: ELISA +54 % over VMCALL; bucket-lock writes make PUT
 * heavier than GET across all schemes).
 */

#include "bench/kvs_common.hh"

int
main(int argc, char **argv)
{
    using namespace elisa;
    using namespace elisa::bench;

    requireNoArgs(argc, argv);
    setQuiet(true);
    banner("F2", "KVS PUT throughput vs number of VMs");
    const KvsPoint p = runKvsFigure(kvs::Mix::PutOnly, "F2_kvs_put");
    paperCheck("ELISA PUT gain over VMCALL @8 VMs",
               (p.elisa - p.vmcall) / p.vmcall * 100.0, 54.0, "%");
    return 0;
}
