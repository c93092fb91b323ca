/**
 * @file
 * Experiment F9 (extension) — NF-chain throughput vs chain length,
 * three sharing schemes.
 *
 * The paper's motivating HyperNF observation ("exits cost 49 % of the
 * direct-mapping performance") emerges here rather than being dialed
 * in: every packet runs through a real chain of stateful NFs whose
 * tables live in the shared region, and the only difference between
 * schemes is how the per-packet work reaches that region (direct map,
 * 196 ns gate call, or 699 ns VMCALL). Around a 4-NF chain, VMCALL
 * sits at ~51 % of direct — the intro's number.
 */

#include <cstdio>

#include "bench/common.hh"
#include "elisa/gate.hh"
#include "hv/ivshmem.hh"
#include "net/nf.hh"
#include "net/paths.hh"

namespace
{

using namespace elisa;
using namespace elisa::bench;

constexpr std::uint64_t packetsPerPoint = 100000;
constexpr std::uint32_t pktLen = 64;
constexpr Gpa stateWindowGpa = 0x530000000000ull;

std::vector<net::NfKind>
chainOf(unsigned length)
{
    static const net::NfKind rotation[] = {
        net::NfKind::Firewall, net::NfKind::Nat,
        net::NfKind::LoadBalancer, net::NfKind::Counter};
    std::vector<net::NfKind> kinds;
    for (unsigned i = 0; i < length; ++i)
        kinds.push_back(rotation[i % 4]);
    return kinds;
}

} // namespace

namespace elisa::bench
{

void
nfChain()
{
    Testbed bed;
    const sim::CostModel &cost = bed.hv.cost();
    hv::Vm &guest_vm = bed.addGuest("nf-guest", 64 * MiB);
    core::ElisaGuest guest(guest_vm, bed.svc);

    TextTable table;
    table.header({"NFs", "ivshmem", "VMCALL", "ELISA", "VMCALL vs "
                                                       "ivshmem",
                  "(Mpps @64B)"});
    double at4_direct = 0, at4_vmcall = 0;

    for (unsigned nfs = 0; nfs <= 6; ++nfs) {
        const auto kinds = chainOf(nfs);

        // --- direct mapping -------------------------------------
        double m_direct;
        {
            hv::IvshmemRegion state(bed.hv, "nf-state-d", pageSize);
            state.attach(guest_vm, stateWindowGpa);
            net::HostRegionIo host_io(bed.hv.memory(), state.base());
            if (nfs)
                net::NfChain::build(host_io, 0, kinds);
            net::GuestRegionIo io(guest_vm.vcpu(0), stateWindowGpa);
            cpu::Vcpu &cpu = guest_vm.vcpu(0);
            const SimNs t0 = cpu.clock().now();
            for (std::uint64_t i = 0; i < packetsPerPoint; ++i) {
                cpu.clock().advance(net::NetPath::perPacketNs(
                    cost, pktLen, true));
                if (nfs) {
                    net::NfChain::process(
                        cpu, io, 0, nfs, static_cast<std::uint32_t>(i),
                        pktLen);
                }
            }
            m_direct = (double)packetsPerPoint * 1e3 /
                       (double)(cpu.clock().now() - t0);
            state.detach(guest_vm, stateWindowGpa);
        }

        // --- VMCALL host interposition ------------------------------
        double m_vmcall;
        {
            auto frames = bed.hv.allocator().alloc(1);
            fatal_if(!frames, "oom");
            net::HostRegionIo host_io(bed.hv.memory(), *frames);
            if (nfs)
                net::NfChain::build(host_io, 0, kinds);
            const std::uint64_t nr = bed.hv.allocServiceNr();
            bed.hv.registerHypercall(
                nr, [&host_io, &cost, nfs](
                        cpu::Vcpu &vcpu,
                        const cpu::HypercallArgs &args) {
                    vcpu.clock().advance(
                        net::NetPath::perPacketNs(cost, pktLen,
                                                        true));
                    if (nfs) {
                        net::NfChain::process(
                            vcpu, host_io, 0, nfs,
                            static_cast<std::uint32_t>(args.arg0),
                            pktLen);
                    }
                    return std::uint64_t{1};
                });
            cpu::Vcpu &cpu = guest_vm.vcpu(0);
            const SimNs t0 = cpu.clock().now();
            for (std::uint64_t i = 0; i < packetsPerPoint; ++i)
                cpu.vmcall(hv::hcArgs(static_cast<hv::Hc>(nr), i));
            m_vmcall = (double)packetsPerPoint * 1e3 /
                       (double)(cpu.clock().now() - t0);
            bed.hv.allocator().free(*frames);
        }

        // --- ELISA ----------------------------------------------------
        double m_elisa;
        {
            core::SharedFnTable fns;
            fns.push_back([&cost, nfs](core::SubCallCtx &ctx) {
                cpu::Vcpu &vcpu = ctx.view.vcpu();
                vcpu.clock().advance(net::NetPath::perPacketNs(
                    cost, pktLen, true));
                if (nfs) {
                    net::GuestRegionIo io(vcpu, ctx.obj);
                    net::NfChain::process(
                        vcpu, io, 0, nfs,
                        static_cast<std::uint32_t>(ctx.arg0), pktLen);
                }
                return std::uint64_t{1};
            });
            const core::ExportKey name("nf-" + std::to_string(nfs));
            auto exported =
                bed.manager.exportObject(name, pageSize,
                                         std::move(fns));
            fatal_if(!exported, "export failed");
            if (nfs) {
                net::HostRegionIo host_io(
                    bed.hv.memory(),
                    bed.managerVm.ramGpaToHpa(exported->objectGpa));
                net::NfChain::build(host_io, 0, kinds);
            }
            core::Gate gate = mustAttach(guest, name, bed.manager);
            cpu::Vcpu &cpu = guest.vcpu();
            gate.call(0, 0); // warm
            const SimNs t0 = cpu.clock().now();
            for (std::uint64_t i = 0; i < packetsPerPoint; ++i)
                gate.call(0, i);
            m_elisa = (double)packetsPerPoint * 1e3 /
                      (double)(cpu.clock().now() - t0);
            gate.detach();
        }

        table.row({std::to_string(nfs),
                   detail::format("%.2f", m_direct),
                   detail::format("%.2f", m_vmcall),
                   detail::format("%.2f", m_elisa),
                   detail::format("%.0f%%",
                                  m_vmcall / m_direct * 100.0),
                   ""});
        if (nfs == 4) {
            at4_direct = m_direct;
            at4_vmcall = m_vmcall;
        }
    }
    std::printf("%s\n", table.render().c_str());
    saveCsv(table, "F9_nf_chain");

    paperCheck("HyperNF point: VMCALL loss vs direct @4-NF chain",
               (at4_direct - at4_vmcall) / at4_direct * 100.0, 49.0,
               "%");
    std::printf("  the -49%% emerges from a real 4-NF chain (%llu ns "
                "of NF work per packet),\n"
                "  not from a tuned constant.\n",
                (unsigned long long)(4 * bed.hv.cost().nfWorkNs));
}

} // namespace elisa::bench
