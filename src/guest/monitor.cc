#include "guest/monitor.hh"

#include <algorithm>

#include "base/logging.hh"
#include "hv/hypercall.hh"

namespace elisa::guest
{

using Layout = sim::TelemetryRegionLayout;

std::optional<core::ElisaManager::Exported>
exportTelemetryRegion(core::ElisaManager &manager,
                      hv::TelemetryPublisher &publisher,
                      const core::ExportKey &key,
                      std::uint32_t slot_bytes)
{
    panic_if(slot_bytes == 0, "telemetry export with empty slots");
    const std::uint64_t bytes = Layout::regionBytes(slot_bytes);

    // The scrape functions are deliberately dumb: a bounds-violating
    // offset walks off the object window and takes the EPT fault the
    // hardware would deliver — no host-side policy to get wrong.
    core::SharedFnTable fns;
    fns.push_back([](core::SubCallCtx &ctx) {
        return ctx.view.read<std::uint64_t>(ctx.obj + ctx.arg0);
    });
    fns.push_back([](core::SubCallCtx &ctx) {
        ctx.view.copyBytes(ctx.exch + ctx.arg2, ctx.obj + ctx.arg0,
                           ctx.arg1);
        return ctx.arg1;
    });

    auto exported = manager.exportObject(key, bytes, std::move(fns),
                                         ept::Perms::Read);
    if (!exported)
        return std::nullopt;

    // Manager-VM RAM is physically contiguous (ramBase + gpa), so the
    // whole region is one host-physical window the publisher can
    // store into directly — guest reads then need no exit at all.
    const Hpa base = manager.vm().ramGpaToHpa(exported->objectGpa);
    publisher.addSink(base, bytes, key.name());
    return exported;
}

MonitorGuest::MonitorGuest(hv::Vm &vm, core::ElisaService &service,
                           unsigned vcpu_index)
    : client(vm, service, vcpu_index)
{
}

bool
MonitorGuest::attach(const core::ExportKey &key,
                     core::ElisaManager &manager)
{
    core::AttachResult result = client.tryAttach(key, manager);
    if (!result)
        return false;
    gate = result.take();
    return true;
}

bool
MonitorGuest::scrape(unsigned max_retries)
{
    if (!gate.valid()) {
        ++failCount;
        return false;
    }
    for (unsigned attempt = 0; attempt <= max_retries; ++attempt) {
        // Seqlock open: an odd seq means a publication is in flight.
        const std::uint64_t seq0 =
            gate.call(telemetryFnRead64, Layout::offSeq);
        if (seq0 == 0)
            break; // nothing published yet
        if (seq0 & 1) {
            ++retryCount;
            continue;
        }
        // One u64 load covers two adjacent u32 header fields.
        const std::uint64_t act =
            gate.call(telemetryFnRead64, Layout::offActive);
        const auto active = static_cast<std::uint32_t>(act);
        const auto slot_bytes = static_cast<std::uint32_t>(act >> 32);
        const std::uint64_t lens =
            gate.call(telemetryFnRead64, Layout::offLen0);
        const std::uint32_t len =
            active == 0 ? static_cast<std::uint32_t>(lens)
                        : static_cast<std::uint32_t>(lens >> 32);
        if (active > 1 || len == 0 || len > slot_bytes) {
            ++retryCount;
            continue;
        }

        // Chunked copy of the active slot through the exchange buffer.
        std::vector<std::uint8_t> buf(len);
        const std::uint64_t slot_off =
            Layout::slotOffset(active, slot_bytes);
        const std::uint64_t chunk = gate.info().exchangeBytes;
        for (std::uint64_t off = 0; off < len; off += chunk) {
            const std::uint64_t n = std::min<std::uint64_t>(
                chunk, len - off);
            gate.call(telemetryFnCopy, slot_off + off, n, 0);
            gate.readExchange(0, buf.data() + off, n);
        }

        // Seqlock close: any publication since seq0 tore the copy.
        const std::uint64_t seq1 =
            gate.call(telemetryFnRead64, Layout::offSeq);
        if (seq1 != seq0) {
            ++retryCount;
            continue;
        }
        return consume(buf);
    }
    ++failCount;
    return false;
}

bool
MonitorGuest::scrapeVmcall(std::uint64_t scrape_nr)
{
    if (vmcallBufGpa == 0) {
        // One-time guest-side landing buffer for the marshalled copy.
        const std::uint64_t want = 256 * 1024;
        auto gpa = client.vm().allocGuestMem(want);
        if (!gpa) {
            ++failCount;
            return false;
        }
        vmcallBufGpa = *gpa;
        vmcallBufBytes = want;
    }
    cpu::HypercallArgs args;
    args.nr = scrape_nr;
    args.arg0 = vmcallBufGpa;
    args.arg1 = vmcallBufBytes;
    const std::uint64_t rc = client.vcpu().vmcall(args);
    if (rc == hv::hcError || rc == 0 || rc > vmcallBufBytes) {
        ++failCount;
        return false;
    }
    std::vector<std::uint8_t> buf(rc);
    client.view().readBytes(vmcallBufGpa, buf.data(), rc);
    return consume(buf);
}

bool
MonitorGuest::scrapeIvshmem(Gpa region_gpa, unsigned max_retries)
{
    cpu::GuestView view = client.view();
    for (unsigned attempt = 0; attempt <= max_retries; ++attempt) {
        const auto seq0 =
            view.read<std::uint64_t>(region_gpa + Layout::offSeq);
        if (seq0 == 0)
            break;
        if (seq0 & 1) {
            ++retryCount;
            continue;
        }
        const auto active =
            view.read<std::uint32_t>(region_gpa + Layout::offActive);
        const auto slot_bytes = view.read<std::uint32_t>(
            region_gpa + Layout::offSlotBytes);
        const auto len = view.read<std::uint32_t>(
            region_gpa +
            (active == 0 ? Layout::offLen0 : Layout::offLen1));
        if (active > 1 || len == 0 || len > slot_bytes) {
            ++retryCount;
            continue;
        }
        std::vector<std::uint8_t> buf(len);
        view.readBytes(region_gpa +
                           Layout::slotOffset(active, slot_bytes),
                       buf.data(), len);
        const auto seq1 =
            view.read<std::uint64_t>(region_gpa + Layout::offSeq);
        if (seq1 != seq0) {
            ++retryCount;
            continue;
        }
        return consume(buf);
    }
    ++failCount;
    return false;
}

bool
MonitorGuest::consume(const std::vector<std::uint8_t> &bytes)
{
    sim::SnapshotView view;
    if (!view.parse(bytes.data(), bytes.size())) {
        ++failCount;
        return false;
    }
    const bool fresh = view.seq() != lastSeq;
    snap = std::move(view);
    ++scrapeCount;
    if (fresh) {
        ++freshCount;
        lastSeq = snap.seq();
        if (csvDoc.empty())
            csvDoc = snap.csvHeader();
        csvDoc += snap.csvRow();
    }
    return true;
}

} // namespace elisa::guest
