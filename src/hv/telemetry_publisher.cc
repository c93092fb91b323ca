#include "hv/telemetry_publisher.hh"

#include <cstring>
#include <utility>

#include "base/logging.hh"
#include "cpu/guest_view.hh"

namespace elisa::hv
{

namespace
{

using Layout = sim::TelemetryRegionLayout;

void
write32(mem::HostMemory &pm, Hpa hpa, std::uint32_t value)
{
    std::memcpy(pm.raw(hpa, 4), &value, 4);
}

std::uint32_t
read32(const mem::HostMemory &pm, Hpa hpa)
{
    std::uint32_t v;
    std::memcpy(&v, pm.raw(hpa, 4), 4);
    return v;
}

} // anonymous namespace

TelemetryPublisher::TelemetryPublisher(Hypervisor &hv,
                                       const sim::Metrics &metrics)
    : hyper(hv), metricsRef(metrics)
{
    publishedId = hv.stats().id("telemetry_published");
    overflowId = hv.stats().id("telemetry_publish_overflow");
    scrapeId = hv.stats().id("telemetry_vmcall_scrapes");
}

std::size_t
TelemetryPublisher::addSink(Hpa base, std::uint64_t bytes,
                            std::string name)
{
    panic_if(bytes <= Layout::headerBytes + 2,
             "telemetry sink '%s' too small (%llu bytes)", name.c_str(),
             (unsigned long long)bytes);
    const std::uint64_t slot = (bytes - Layout::headerBytes) / 2;
    panic_if(slot > ~std::uint32_t{0},
             "telemetry sink '%s' slot exceeds u32", name.c_str());
    // Fail fast on a wild window rather than at the first publish.
    std::as_const(hyper.memory())
        .raw(base, Layout::regionBytes(static_cast<std::uint32_t>(slot)));
    Sink sink{base, static_cast<std::uint32_t>(slot), std::move(name)};
    initRegion(sink);
    sinks.push_back(std::move(sink));
    return sinks.size() - 1;
}

std::uint32_t
TelemetryPublisher::slotBytes(std::size_t index) const
{
    panic_if(index >= sinks.size(), "bad sink index %zu", index);
    return sinks[index].slotBytes;
}

Hpa
TelemetryPublisher::sinkBase(std::size_t index) const
{
    panic_if(index >= sinks.size(), "bad sink index %zu", index);
    return sinks[index].base;
}

void
TelemetryPublisher::initRegion(const Sink &sink)
{
    mem::HostMemory &pm = hyper.memory();
    pm.zero(sink.base, Layout::regionBytes(sink.slotBytes));
    write32(pm, sink.base + Layout::offMagic, Layout::magic);
    std::uint16_t version = sim::snapshotVersion;
    std::memcpy(pm.raw(sink.base + Layout::offVersion, 2), &version, 2);
    write32(pm, sink.base + Layout::offSlotBytes, sink.slotBytes);
}

std::uint64_t
TelemetryPublisher::publish(SimNs now)
{
    // Keep the per-VM flight-recorder rings current at every
    // publication boundary; a VM killed between publications then
    // loses at most one cadence of spans to the global ring.
    if (hyper.flightRecorder() && hyper.tracer())
        hyper.flightRecorder()->observe(*hyper.tracer());

    const std::uint64_t seq = ++pubCount;
    const sim::TelemetrySources sources{&metricsRef, hyper.ledger(),
                                        hyper.tracer()};
    last = sim::serializeTelemetrySnapshot(sources, seq, now, traceTail);
    hyper.stats().inc(publishedId);

    mem::HostMemory &pm = hyper.memory();
    for (const Sink &sink : sinks) {
        if (last.size() > sink.slotBytes) {
            // Leave the sink on its previous snapshot: stale beats
            // truncated.
            ++overflowCount;
            hyper.stats().inc(overflowId);
            continue;
        }
        // Seqlock write: odd seq while the flip is in flight, even
        // once the region is consistent again.
        const std::uint64_t lock = pm.read64(sink.base + Layout::offSeq);
        pm.write64(sink.base + Layout::offSeq, lock + 1);
        const std::uint32_t target =
            read32(pm, sink.base + Layout::offActive) ^ 1u;
        pm.write(sink.base + Layout::slotOffset(target, sink.slotBytes),
                 last.data(), last.size());
        write32(pm,
                sink.base + (target == 0 ? Layout::offLen0
                                         : Layout::offLen1),
                static_cast<std::uint32_t>(last.size()));
        write32(pm, sink.base + Layout::offActive, target);
        pm.write64(sink.base + Layout::offPubCount, seq);
        pm.write64(sink.base + Layout::offLastPubNs, now);
        pm.write64(sink.base + Layout::offSeq, lock + 2);
    }
    return seq;
}

std::uint64_t
TelemetryPublisher::registerScrapeHypercall()
{
    if (scrapeNr != 0)
        return scrapeNr;
    scrapeNr = hyper.allocServiceNr();
    hyper.setHypercallName(scrapeNr, "hc_telemetry_scrape");
    hyper.registerHypercall(
        scrapeNr,
        [this](cpu::Vcpu &vcpu, const cpu::HypercallArgs &args) {
            // (dest_gpa, capacity) -> snapshot length | hcError.
            if (last.empty() || args.arg1 < last.size())
                return hcError;
            hyper.stats().inc(scrapeId);
            cpu::GuestView view(vcpu);
            view.writeBytes(args.arg0, last.data(), last.size());
            return static_cast<std::uint64_t>(last.size());
        });
    return scrapeNr;
}

} // namespace elisa::hv
