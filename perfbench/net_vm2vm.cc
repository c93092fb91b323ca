/**
 * @file
 * net_vm2vm: two 64 MiB VMs on the 2 GiB F5 machine exchange packets
 * VM-to-VM through net::runVm2Vm over the ELISA, VMCALL and ivshmem
 * paths, at 64 B and 1472 B. No engine runs at all, so this is the
 * control for engine changes; the gate and GuestView layers move bulk
 * payloads through descriptor rings instead of 8-byte reads.
 */

#include <string>
#include <utility>
#include <vector>

#include "net/paths.hh"
#include "net/phys_nic.hh"
#include "net/workloads.hh"
#include "sim/rng.hh"
#include "workload.hh"

namespace perfbench
{

using namespace elisa;

namespace
{

constexpr std::uint64_t physBytes = 2 * GiB;
constexpr std::uint64_t guestRam = 64 * MiB;
constexpr std::uint32_t packetSizes[] = {64, 1472};
constexpr std::uint64_t packetsPerRun = 1600;

/**
 * Forwards to a datapath, verifies the payload pattern of every packet
 * the host collects, and in the traced run times each call: a packet's
 * guestTx + hostCollectTx form its transmit span group, hostDeliverRx +
 * guestRx its receive group.
 */
class CheckedNetPath : public net::NetPath
{
  public:
    CheckedNetPath(net::NetPath &inner, std::string tag, Trace *trace)
        : inner(inner), tag(std::move(tag)), tr(trace)
    {
    }

    /** Select the span names of the next run's packet size. */
    void
    setSize(std::uint32_t len)
    {
        if (!tr)
            return;
        const std::string suffix = tag + "." + std::to_string(len);
        SpanRecorder &rec = tr->rec;
        guestTxName = rec.intern("net.guestTx." + suffix);
        collectTxName = rec.intern("net.hostCollectTx." + suffix);
        deliverRxName = rec.intern("net.hostDeliverRx." + suffix);
        guestRxName = rec.intern("net.guestRx." + suffix);
        tr->stats.group(rec.intern("net.tx_ns." + suffix),
                        {guestTxName, collectTxName});
        tr->stats.group(rec.intern("net.rx_ns." + suffix),
                        {deliverRxName, guestRxName});
    }

    const char *name() const override { return inner.name(); }
    cpu::Vcpu &vcpu() override { return inner.vcpu(); }

    SimNs
    guestTx(std::uint32_t seq, std::uint32_t len) override
    {
        if (tr)
            tr->rec.newOp();
        SpanScope s(rec(), guestTxName);
        return inner.guestTx(seq, len);
    }

    std::pair<std::uint32_t, std::uint32_t>
    guestRx() override
    {
        SpanScope s(rec(), guestRxName);
        return inner.guestRx();
    }

    SimNs
    hostDeliverRx(std::uint32_t seq, std::uint32_t len,
                  SimNs wire_done) override
    {
        SpanScope s(rec(), deliverRxName);
        return inner.hostDeliverRx(seq, len, wire_done);
    }

    std::pair<net::Packet, SimNs>
    hostCollectTx(SimNs handoff) override
    {
        std::pair<net::Packet, SimNs> out = [&] {
            SpanScope s(rec(), collectTxName);
            return inner.hostCollectTx(handoff);
        }();
        const net::Packet &pkt = out.first;
        if (pkt.data.size() < pkt.len ||
            !net::checkPattern(pkt.data.data(), pkt.seq, pkt.len)) {
            ++badPayloads;
        }
        return out;
    }

    /** Collected packets whose payload did not carry its pattern. */
    std::uint64_t badPayloads = 0;

  private:
    SpanRecorder *rec() { return tr ? &tr->rec : nullptr; }

    net::NetPath &inner;
    std::string tag;
    Trace *tr;
    SpanName guestTxName = 0, collectTxName = 0;
    SpanName deliverRxName = 0, guestRxName = 0;
};

class NetVm2Vm : public Workload
{
  public:
    NetVm2Vm(std::uint64_t seed, Trace *trace)
        : seed(seed), tr(trace),
          machine(std::make_unique<Bed>(physBytes, trace)),
          vmA(machine->createVm("vm-a", guestRam)),
          vmB(machine->createVm("vm-b", guestRam)),
          guestA(vmA, machine->svc()), guestB(vmB, machine->svc()),
          elisaA(machine->hv(), machine->manager(), guestA, "nic-a"),
          elisaB(machine->hv(), machine->manager(), guestB, "nic-b"),
          vmcallA(machine->hv(), vmA), vmcallB(machine->hv(), vmB),
          directA(machine->hv(), vmA), directB(machine->hv(), vmB),
          nic(machine->hv().cost())
    {
        const std::pair<net::NetPath *, net::NetPath *> pairs[] = {
            {&elisaA, &elisaB}, {&vmcallA, &vmcallB}, {&directA, &directB}};
        for (const auto &[a, b] : pairs) {
            const std::string tag = a == &elisaA    ? "elisa"
                                    : a == &vmcallA ? "vmcall"
                                                    : "ivshmem";
            tx.push_back(std::make_unique<CheckedNetPath>(*a, tag, tr));
            rx.push_back(std::make_unique<CheckedNetPath>(*b, tag, tr));
        }
    }

    std::uint64_t
    runSlice(std::uint64_t index) override
    {
        // The seed picks the order of the slice's six runs; the shared
        // vCPU clocks carry over from run to run, so the order shapes
        // the simulated outcome.
        std::vector<std::pair<std::size_t, std::uint32_t>> runs;
        for (std::size_t i = 0; i < tx.size(); ++i) {
            for (std::uint32_t len : packetSizes)
                runs.emplace_back(i, len);
        }
        sim::Rng rng(sliceSeed(seed, index));
        for (std::size_t k = runs.size(); k > 1; --k)
            std::swap(runs[k - 1], runs[rng.below(k)]);

        for (const auto &[i, len] : runs) {
            tx[i]->setSize(len);
            rx[i]->setSize(len);
            const std::uint64_t bad0 = tx[i]->badPayloads;
            net::NetResult r;
            {
                SpanScope s = span(tr, &Names::runVm2Vm);
                r = net::runVm2Vm(*tx[i], *rx[i], nic, false, len,
                                  packetsPerRun);
            }
            // runVm2Vm checks each received packet's seq and len.
            failed += r.corrupt + (tx[i]->badPayloads - bad0);
            outcome.add(r.packets);
            outcome.add(r.elapsed);
        }
        return runs.size() * packetsPerRun;
    }

    Bed &bed() override { return *machine; }

  private:
    std::uint64_t seed;
    Trace *tr;
    std::unique_ptr<Bed> machine;
    hv::Vm &vmA;
    hv::Vm &vmB;
    core::ElisaGuest guestA, guestB;
    net::ElisaPath elisaA, elisaB;
    net::VmcallPath vmcallA, vmcallB;
    net::DirectPath directA, directB;
    net::PhysNic nic;
    std::vector<std::unique_ptr<CheckedNetPath>> tx, rx;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeNetVm2Vm(std::uint64_t seed, Trace *trace)
{
    return std::make_unique<NetVm2Vm>(seed, trace);
}

} // namespace perfbench
