#include "net/workloads.hh"

#include <memory>
#include <vector>

#include "base/logging.hh"
#include "sim/engine.hh"

namespace elisa::net
{

namespace
{

/** One receiving VM in the shared-NIC workload. */
class SharedRxActor : public sim::Actor
{
  public:
    SharedRxActor(NetPath &path, PhysNic &nic, std::uint32_t len,
                  std::uint64_t count, SimNs start)
        : path(path), nic(nic), len(len), remaining(count),
          startNs(start)
    {
    }

    SimNs actorNow() const override { return path.vcpu().clock().now(); }

    bool
    step() override
    {
        // This VM's next frame serializes on the shared wire after
        // whatever any VM received before it.
        const SimNs wire_done = nic.rxArrive(startNs, len);
        const SimNs ready =
            path.hostDeliverRx(seq, len, wire_done);
        path.vcpu().clock().syncTo(ready);
        const auto [got_seq, got_len] = path.guestRx();
        if (got_seq != seq || got_len != len)
            ++corrupt;
        ++seq;
        return --remaining > 0;
    }

    std::uint64_t corrupt = 0;

  private:
    NetPath &path;
    PhysNic &nic;
    std::uint32_t len;
    std::uint64_t remaining;
    std::uint32_t seq = 0;
    SimNs startNs;
};

} // anonymous namespace

NetResult
runRx(NetPath &path, PhysNic &nic, std::uint32_t len,
      std::uint64_t count)
{
    panic_if(len < minPacketBytes || len > maxPacketBytes,
             "packet size %u out of range", len);
    cpu::Vcpu &cpu = path.vcpu();
    const SimNs t0 = cpu.clock().now();

    NetResult result;
    for (std::uint64_t i = 0; i < count; ++i) {
        // The next frame finishes arriving on the (saturated) wire...
        const SimNs wire_done = nic.rxArrive(t0, len);
        // ...is placed into the RX ring (plus backend, if any)...
        const SimNs ready = path.hostDeliverRx(
            static_cast<std::uint32_t>(i), len, wire_done);
        // ...and the guest consumes it as soon as both it and the
        // packet are ready.
        cpu.clock().syncTo(ready);
        const auto [seq, got_len] = path.guestRx();
        if (seq != i || got_len != len)
            ++result.corrupt;
    }
    result.packets = count;
    result.elapsed = cpu.clock().now() - t0;
    return result;
}

NetResult
runTx(NetPath &path, PhysNic &nic, std::uint32_t len,
      std::uint64_t count)
{
    panic_if(len < minPacketBytes || len > maxPacketBytes,
             "packet size %u out of range", len);
    cpu::Vcpu &cpu = path.vcpu();
    const SimNs t0 = cpu.clock().now();

    // Ring-slot backpressure: descriptor i reuses the slot of
    // descriptor i - ringEntries, which the NIC releases only once
    // that frame has left the wire.
    std::vector<SimNs> wire_done(DescRing::ringEntries, 0);

    NetResult result;
    SimNs last_wire = t0;
    for (std::uint64_t i = 0; i < count; ++i) {
        cpu.clock().syncTo(wire_done[i % DescRing::ringEntries]);
        const SimNs handoff =
            path.guestTx(static_cast<std::uint32_t>(i), len);
        auto [pkt, ready] = path.hostCollectTx(handoff);
        if (pkt.len != len ||
            !checkPattern(pkt.data.data(),
                          static_cast<std::uint32_t>(i), len)) {
            ++result.corrupt;
        }
        last_wire = nic.txDepart(ready, len);
        wire_done[i % DescRing::ringEntries] = last_wire;
    }
    result.packets = count;
    const SimNs end =
        cpu.clock().now() > last_wire ? cpu.clock().now() : last_wire;
    result.elapsed = end - t0;
    return result;
}

NetResult
runRxShared(const std::vector<NetPath *> &paths, PhysNic &nic,
            std::uint32_t len, std::uint64_t count_per_vm)
{
    panic_if(paths.empty(), "shared RX needs at least one VM");
    panic_if(len < minPacketBytes || len > maxPacketBytes,
             "packet size %u out of range", len);

    // Align the observation window: arrivals start no earlier than
    // the latest receiver's clock.
    SimNs start = 0;
    for (NetPath *p : paths)
        start = std::max(start, p->vcpu().clock().now());

    std::vector<std::unique_ptr<SharedRxActor>> actors;
    std::vector<SimNs> t0(paths.size());
    sim::Engine engine;
    for (std::size_t i = 0; i < paths.size(); ++i) {
        paths[i]->vcpu().clock().syncTo(start);
        t0[i] = paths[i]->vcpu().clock().now();
        actors.push_back(std::make_unique<SharedRxActor>(
            *paths[i], nic, len, count_per_vm, start));
        engine.add(actors.back().get());
    }
    engine.run();

    NetResult result;
    SimNs end = start;
    for (std::size_t i = 0; i < paths.size(); ++i) {
        result.packets += count_per_vm;
        result.corrupt += actors[i]->corrupt;
        end = std::max(end, paths[i]->vcpu().clock().now());
    }
    result.elapsed = end - start;
    return result;
}

NetResult
runVm2Vm(NetPath &tx_path, NetPath &rx_path, PhysNic &nic,
         bool through_wire, std::uint32_t len, std::uint64_t count)
{
    panic_if(len < minPacketBytes || len > maxPacketBytes,
             "packet size %u out of range", len);
    cpu::Vcpu &tx_cpu = tx_path.vcpu();
    cpu::Vcpu &rx_cpu = rx_path.vcpu();
    panic_if(&tx_cpu == &rx_cpu, "VM-to-VM needs two distinct vCPUs");

    const SimNs t0 = rx_cpu.clock().now();

    // Receiver-completion backpressure: the sender may run at most
    // one ring of packets ahead of the receiver.
    std::vector<SimNs> rx_done(DescRing::ringEntries, 0);

    NetResult result;
    for (std::uint64_t i = 0; i < count; ++i) {
        tx_cpu.clock().syncTo(rx_done[i % DescRing::ringEntries]);
        const SimNs handoff =
            tx_path.guestTx(static_cast<std::uint32_t>(i), len);
        auto [pkt, ready] = tx_path.hostCollectTx(handoff);

        // The switch hop: hardware (wire-limited) for SR-IOV,
        // memory-to-memory for software paths. It carries the frame at
        // the length the workload sent; a length the sender's
        // descriptor misstates is counted below.
        const SimNs forwarded =
            through_wire ? nic.txDepart(ready, len) : ready;
        const SimNs visible = rx_path.hostDeliverRx(pkt.seq, len, forwarded);

        rx_cpu.clock().syncTo(visible);
        const auto [seq, got_len] = rx_path.guestRx();
        if (pkt.len != len || seq != i || got_len != len)
            ++result.corrupt;
        rx_done[i % DescRing::ringEntries] = rx_cpu.clock().now();
    }
    result.packets = count;
    result.elapsed = rx_cpu.clock().now() - t0;
    return result;
}

} // namespace elisa::net
