/**
 * @file
 * Experiment T3 — §6.1-style microbenchmark: the cost of every
 * transition primitive underlying the schemes (VMFUNC EPTP switch,
 * gate code segments, VM exit/entry, VMCALL and CPUID round trips,
 * EPT walk and TLB-hit access).
 */

#include <cstdio>

#include "bench/common.hh"
#include "cpu/guest_view.hh"

namespace
{

using namespace elisa;
using namespace elisa::bench;

constexpr std::uint64_t iterations = 1000000;

/** Average simulated ns of @p op over the iteration count. */
template <typename Fn>
double
avgNs(cpu::Vcpu &cpu, Fn &&op)
{
    const SimNs t0 = cpu.clock().now();
    for (std::uint64_t i = 0; i < iterations; ++i)
        op();
    return (double)(cpu.clock().now() - t0) / (double)iterations;
}

} // namespace

namespace elisa::bench
{

void
microcost()
{
    Testbed bed;
    hv::Vm &vm = bed.addGuest("guest");
    cpu::Vcpu &cpu = vm.vcpu(0);
    const sim::CostModel &cost = bed.hv.cost();

    // A second EPT context to ping-pong VMFUNC against.
    ept::Ept other(bed.hv.memory(), bed.hv.allocator());
    auto frame = bed.hv.allocator().alloc();
    other.map(0, *frame, ept::Perms::RWX);
    auto idx = bed.hv.installEptp(cpu, other.eptp());
    fatal_if(!idx, "EPTP install failed");

    const double vmfunc_ns = avgNs(cpu, [&] {
        cpu.vmfunc(0, *idx);
        cpu.vmfunc(0, 0);
    }) / 2.0;

    const double vmcall_ns =
        avgNs(cpu, [&] { cpu.vmcall(hv::hcArgs(hv::Hc::Nop)); });

    const double cpuid_ns = avgNs(cpu, [&] { cpu.cpuid(0); });

    cpu::GuestView view(cpu);
    view.read<std::uint64_t>(0x1000); // prime the TLB
    const double hit_ns =
        avgNs(cpu, [&] { view.read<std::uint64_t>(0x1000); });

    // TLB-miss walk: touch a fresh page each time (flush per access).
    const double walk_ns = avgNs(cpu, [&] {
        cpu.tlb().flushAll();
        view.read<std::uint64_t>(0x2000);
    });

    TextTable table;
    table.header({"Primitive", "Time [ns]", "Model parameter"});
    auto row = [&table](const char *name, double ns,
                        const std::string &param) {
        table.row({name, detail::format("%.1f", ns), param});
    };
    row("VMFUNC EPTP switch (no exit)", vmfunc_ns,
        detail::format("vmfuncNs=%llu",
                       (unsigned long long)cost.vmfuncNs));
    row("gate code segment", (double)cost.gateCodeNs,
        detail::format("gateCodeNs=%llu",
                       (unsigned long long)cost.gateCodeNs));
    row("VMCALL round trip", vmcall_ns,
        detail::format("exit %llu + dispatch %llu + entry %llu",
                       (unsigned long long)cost.vmexitNs,
                       (unsigned long long)cost.hypercallDispatchNs,
                       (unsigned long long)cost.vmentryNs));
    row("CPUID forced exit round trip", cpuid_ns,
        detail::format("exit %llu + handle %llu + entry %llu",
                       (unsigned long long)cost.vmexitNs,
                       (unsigned long long)cost.cpuidHandleNs,
                       (unsigned long long)cost.vmentryNs));
    row("8B guest access, TLB hit", hit_ns,
        detail::format("memAccessNs=%llu",
                       (unsigned long long)cost.memAccessNs));
    row("8B guest access, EPT walk", walk_ns,
        detail::format("eptWalkNs=%llu",
                       (unsigned long long)cost.eptWalkNs));
    std::printf("%s\n", table.render().c_str());

    paperCheck("VMCALL RTT vs VMFUNC switch ratio",
               vmcall_ns / vmfunc_ns, 699.0 / 42.0, "x");
    std::printf("  note: 4 VMFUNC + 2 gate segments = %.0f ns, the "
                "ELISA RTT of T2.\n",
                4 * vmfunc_ns + 2.0 * (double)cost.gateCodeNs);

    BenchReport report("microcost");
    report.set("vmfunc_ns", vmfunc_ns);
    report.set("gate_code_ns", (double)cost.gateCodeNs);
    report.set("vmcall_rtt_ns", vmcall_ns);
    report.set("cpuid_rtt_ns", cpuid_ns);
    report.set("tlb_hit_ns", hit_ns);
    report.set("ept_walk_ns", walk_ns);

    bed.hv.allocator().free(*frame);
}

} // namespace elisa::bench
