/**
 * @file
 * elisa_bench — the one driver for the paper's tables and figures.
 *
 *   elisa_bench <ID>    run one entry in this process
 *   elisa_bench --all   run every entry, each in its own child process,
 *                       std::thread::hardware_concurrency() at a time,
 *                       and print each child's output whole, in
 *                       registry order; exit 1 naming any that failed
 *
 * Any other argument exits 2 with a usage line. Each entry writes its
 * series under bench_results/ in the working directory: CSV tables,
 * and BENCH_<name>.json for tools/bench_check. The registry below is
 * the only list of entries.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hh"

namespace elisa::bench
{

void contextRtt();    // bench_context_rtt.cc
void microcost();     // bench_microcost.cc
void setupCost();     // bench_setup_cost.cc
void kvsGet();        // bench_kvs_get.cc
void kvsPut();        // bench_kvs_put.cc
void netRx();         // bench_net_rx.cc
void netTx();         // bench_net_tx.cc
void netVm2vm();      // bench_net_vm2vm.cc
void memcachedGet();  // bench_memcached_get.cc
void memcachedSet();  // bench_memcached_set.cc
void netMultivm();    // bench_net_multivm.cc
void nfChain();       // bench_nf_chain.cc
void ablationGate();  // bench_ablation_gate.cc
void ablationTlb();   // bench_ablation_tlb.cc
void ablationBatch(); // bench_ablation_batch.cc
void ablationWake();  // bench_ablation_wake.cc
void kvsCluster();    // bench_kvs_cluster.cc
void overcommit();    // bench_overcommit.cc
void telemetry();     // bench_telemetry.cc
void engineScale();   // bench_engine_scale.cc

} // namespace elisa::bench

namespace
{

using namespace elisa;
using namespace elisa::bench;

/** One table, figure or scenario: its id, banner title and body. */
struct Entry
{
    const char *id;
    const char *title;
    void (*run)();
};

const Entry registry[] = {
    {"T2", "context round-trip time (ELISA vs VMCALL)", contextRtt},
    {"T3", "transition-primitive microcosts", microcost},
    {"T4", "negotiation / setup cost scaling", setupCost},
    {"F1", "KVS GET throughput vs number of VMs", kvsGet},
    {"F2", "KVS PUT throughput vs number of VMs", kvsPut},
    {"F3", "RX over NIC throughput vs packet size", netRx},
    {"F4", "TX over NIC throughput vs packet size", netTx},
    {"F5", "VM-to-VM throughput vs packet size", netVm2vm},
    {"F6", "memcached GET-heavy: p99 latency vs throughput",
     memcachedGet},
    {"F7", "memcached SET-heavy: p99 latency vs throughput",
     memcachedSet},
    {"F8",
     "aggregate 64B RX vs number of VMs sharing one port (extension)",
     netMultivm},
    {"F9", "NF-chain RX processing vs chain length (extension)",
     nfChain},
    {"A1", "ablation: gate context vs direct 2-VMFUNC entry",
     ablationGate},
    {"A2", "ablation: tagged TLB vs flush-on-switch", ablationTlb},
    {"A3", "ablation: batching the crossing (gate call vs VMCALL)",
     ablationBatch},
    {"A4",
     "ablation: polling vs doorbell wake-up (memcached over ELISA)",
     ablationWake},
    {"C1", "sharded KVS cluster: p99 latency vs throughput",
     kvsCluster},
    {"P1",
     "shared-object access under overcommit "
     "(ELISA vs VMCALL vs ivshmem)",
     overcommit},
    {"O1", "telemetry scrape RTT per access scheme", telemetry},
    {"S1", "engine scale scenario (8 machines x 32 VMs)", engineScale},
};

int
usage()
{
    std::string ids;
    for (const Entry &e : registry)
        ids += std::string(" ") + e.id;
    std::fprintf(stderr, "usage: elisa_bench --all | elisa_bench <ID>, "
                         "ID one of%s\n",
                 ids.c_str());
    return 2;
}

/** A child process running one entry, its output in a temp file. */
struct Child
{
    pid_t pid = -1;
    std::FILE *out = nullptr;
    int status = 0;
    bool done = false;
};

/** Start `elisa_bench <id>` with stdout and stderr sent to a temp file. */
Child
spawn(const char *id)
{
    Child c;
    c.out = std::tmpfile();
    fatal_if(!c.out, "tmpfile failed: %s", std::strerror(errno));
    std::fflush(stdout);
    std::fflush(stderr);
    c.pid = fork();
    fatal_if(c.pid < 0, "fork failed: %s", std::strerror(errno));
    if (c.pid == 0) {
        dup2(fileno(c.out), STDOUT_FILENO);
        dup2(fileno(c.out), STDERR_FILENO);
        execl("/proc/self/exe", "elisa_bench", id, (char *)nullptr);
        std::fprintf(stderr, "exec failed: %s\n", std::strerror(errno));
        _exit(127);
    }
    return c;
}

/** Copy a finished child's output to stdout; true if it succeeded. */
bool
printChild(Child &c)
{
    std::rewind(c.out);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, c.out)) > 0)
        std::fwrite(buf, 1, n, stdout);
    std::fclose(c.out);
    std::fflush(stdout);
    return WIFEXITED(c.status) && WEXITSTATUS(c.status) == 0;
}

int
runAll()
{
    const std::size_t count = std::size(registry);
    const std::size_t width =
        std::max(1u, std::thread::hardware_concurrency());
    std::vector<Child> children(count);
    std::size_t started = 0, running = 0, printed = 0;
    std::string failed;
    while (printed < count) {
        for (; running < width && started < count; ++started, ++running)
            children[started] = spawn(registry[started].id);
        int status = 0;
        const pid_t pid = waitpid(-1, &status, 0);
        fatal_if(pid < 0, "waitpid failed: %s", std::strerror(errno));
        for (Child &c : children) {
            if (c.pid == pid) {
                c.status = status;
                c.done = true;
                --running;
            }
        }
        for (; printed < started && children[printed].done; ++printed) {
            if (!printChild(children[printed]))
                failed += std::string(" ") + registry[printed].id;
        }
    }
    if (!failed.empty()) {
        std::fprintf(stderr, "elisa_bench --all: failed:%s\n",
                     failed.c_str());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2)
        return usage();
    if (std::strcmp(argv[1], "--all") == 0)
        return runAll();
    for (const Entry &e : registry) {
        if (std::strcmp(argv[1], e.id) == 0) {
            // The banner states the cost-model calibration the
            // entry runs under.
            const char *rule = "=========================================="
                               "====================";
            std::printf("%s\n%s: %s\n%s\n%s\n", rule, e.id, e.title,
                        sim::CostModel{}.summary().c_str(), rule);
            setQuiet(true);
            e.run();
            return 0;
        }
    }
    std::fprintf(stderr, "elisa_bench: unknown id '%s'\n", argv[1]);
    return usage();
}
