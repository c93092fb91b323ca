#include "sim/telemetry.hh"

#include <algorithm>
#include <map>

#include "base/logging.hh"

namespace elisa::sim
{

namespace
{

/**
 * The kind byte every metric sample starts with. Every sample is a
 * counter; the byte stays on the wire so snapshot sizes, and with them
 * the simulated scrape times, do not move.
 */
constexpr std::uint8_t counterSampleKind = 0;

// ---- little-endian append/read helpers -----------------------------

void
putU8(std::vector<std::uint8_t> &out, std::uint8_t v)
{
    out.push_back(v);
}

void
putU16(std::vector<std::uint8_t> &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putString(std::vector<std::uint8_t> &out, const std::string &s)
{
    panic_if(s.size() > 0xffff, "telemetry string too long (%zu)",
             s.size());
    putU16(out, static_cast<std::uint16_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
}

void
patchU32(std::vector<std::uint8_t> &out, std::size_t at,
         std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Bounds-checked read cursor over a parsed snapshot. */
class Cursor
{
  public:
    Cursor(const std::uint8_t *data, std::size_t len)
        : base(data), size(len)
    {
    }

    bool
    readU8(std::uint8_t &v)
    {
        if (pos + 1 > size)
            return false;
        v = base[pos];
        pos += 1;
        return true;
    }

    bool
    readU16(std::uint16_t &v)
    {
        if (pos + 2 > size)
            return false;
        v = static_cast<std::uint16_t>(base[pos] |
                                       (base[pos + 1] << 8));
        pos += 2;
        return true;
    }

    bool
    readU32(std::uint32_t &v)
    {
        if (pos + 4 > size)
            return false;
        v = 0;
        for (unsigned i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(base[pos + i]) << (8 * i);
        pos += 4;
        return true;
    }

    bool
    readU64(std::uint64_t &v)
    {
        if (pos + 8 > size)
            return false;
        v = 0;
        for (unsigned i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(base[pos + i]) << (8 * i);
        pos += 8;
        return true;
    }

    bool
    readString(std::string &s)
    {
        std::uint16_t len = 0;
        if (!readU16(len) || pos + len > size)
            return false;
        s.assign(reinterpret_cast<const char *>(base + pos), len);
        pos += len;
        return true;
    }

    bool
    skip(std::size_t n)
    {
        if (pos + n > size)
            return false;
        pos += n;
        return true;
    }

    std::size_t at() const { return pos; }
    std::size_t remaining() const { return size - pos; }
    bool done() const { return pos == size; }

  private:
    const std::uint8_t *base;
    std::size_t size;
    std::size_t pos = 0;
};

// ---- section serializers -------------------------------------------

void
appendMetricsSection(std::vector<std::uint8_t> &out,
                     const Metrics &metrics)
{
    const std::vector<ExportSample> samples = metrics.exportSamples();
    putU32(out, static_cast<std::uint32_t>(SnapshotSection::Metrics));
    const std::size_t len_at = out.size();
    putU32(out, 0); // patched below
    const std::size_t body_at = out.size();

    putU32(out, static_cast<std::uint32_t>(samples.size()));
    for (const ExportSample &s : samples) {
        putU8(out, counterSampleKind);
        putString(out, s.family);
        panic_if(s.labels.size() > 0xffff, "too many labels");
        putU16(out, static_cast<std::uint16_t>(s.labels.size()));
        for (const auto &[k, v] : s.labels) {
            putString(out, k);
            putString(out, v);
        }
        putU64(out, s.counterVal);
    }
    patchU32(out, len_at,
             static_cast<std::uint32_t>(out.size() - body_at));
}

void
appendLedgerSection(std::vector<std::uint8_t> &out,
                    const ExitLedger &ledger)
{
    putU32(out, static_cast<std::uint32_t>(SnapshotSection::Ledger));
    const std::size_t len_at = out.size();
    putU32(out, 0);
    const std::size_t body_at = out.size();

    const std::vector<ExitLedger::Row> &rows = ledger.rows();
    putU32(out, static_cast<std::uint32_t>(rows.size()));
    for (const ExitLedger::Row &row : rows) {
        putU32(out, row.vm);
        putU32(out, row.vcpu);
        putU32(out, static_cast<std::uint32_t>(row.kind));
        putU32(out, row.code);
        putU64(out, row.events);
        putU64(out, row.ns);
    }
    patchU32(out, len_at,
             static_cast<std::uint32_t>(out.size() - body_at));
}

void
appendTraceSection(std::vector<std::uint8_t> &out, const Tracer &tracer,
                   std::size_t tail_events)
{
    putU32(out, static_cast<std::uint32_t>(SnapshotSection::Trace));
    const std::size_t len_at = out.size();
    putU32(out, 0);
    const std::size_t body_at = out.size();

    const std::vector<TraceEvent> all = tracer.snapshot();
    const std::size_t keep = std::min(tail_events, all.size());
    const std::size_t first = all.size() - keep;

    // Compact local name table: ids in first-appearance order within
    // the tail (deterministic for a given event sequence).
    std::map<TraceName, std::uint16_t> local;
    std::vector<TraceName> order;
    for (std::size_t i = first; i < all.size(); ++i) {
        const TraceName id = all[i].name;
        if (local.emplace(id, static_cast<std::uint16_t>(order.size()))
                .second)
            order.push_back(id);
    }

    putU64(out, tracer.emitted());
    putU64(out, tracer.dropped());
    putU16(out, static_cast<std::uint16_t>(order.size()));
    for (const TraceName id : order)
        putString(out, tracer.nameOf(id));
    putU32(out, static_cast<std::uint32_t>(keep));
    for (std::size_t i = first; i < all.size(); ++i) {
        const TraceEvent &ev = all[i];
        putU64(out, ev.ts);
        putU64(out, ev.arg0);
        putU64(out, ev.arg1);
        putU64(out, ev.flowId);
        putU32(out, ev.track);
        putU16(out, local[ev.name]);
        putU8(out, static_cast<std::uint8_t>(ev.cat));
        putU8(out, static_cast<std::uint8_t>(ev.phase));
    }
    patchU32(out, len_at,
             static_cast<std::uint32_t>(out.size() - body_at));
}

} // anonymous namespace

std::uint32_t
telemetryChecksum(const std::uint8_t *data, std::size_t len)
{
    std::uint32_t hash = 2166136261u;
    for (std::size_t i = 0; i < len; ++i) {
        hash ^= data[i];
        hash *= 16777619u;
    }
    return hash;
}

std::vector<std::uint8_t>
serializeTelemetrySnapshot(const TelemetrySources &sources,
                           std::uint64_t seq, SimNs now,
                           std::size_t trace_tail_events)
{
    std::vector<std::uint8_t> out;
    out.reserve(4096);

    std::uint16_t sections = 0;
    putU32(out, snapshotMagic);
    putU16(out, snapshotVersion);
    const std::size_t sections_at = out.size();
    putU16(out, 0); // patched below
    putU64(out, seq);
    putU64(out, now);
    const std::size_t total_at = out.size();
    putU32(out, 0); // total, patched below
    putU32(out, 0); // checksum, patched below
    panic_if(out.size() != snapshotHeaderBytes,
             "snapshot header layout drifted");

    if (sources.metrics) {
        appendMetricsSection(out, *sources.metrics);
        ++sections;
    }
    if (sources.ledger) {
        appendLedgerSection(out, *sources.ledger);
        ++sections;
    }
    if (sources.tracer && trace_tail_events > 0) {
        appendTraceSection(out, *sources.tracer, trace_tail_events);
        ++sections;
    }

    out[sections_at] = static_cast<std::uint8_t>(sections);
    out[sections_at + 1] = static_cast<std::uint8_t>(sections >> 8);
    patchU32(out, total_at, static_cast<std::uint32_t>(out.size()));
    patchU32(out, total_at + 4,
             telemetryChecksum(out.data() + snapshotHeaderBytes,
                               out.size() - snapshotHeaderBytes));
    return out;
}

bool
SnapshotView::fail(std::string why)
{
    parsed = false;
    parseError = std::move(why);
    metricSamples.clear();
    rows.clear();
    tail.clear();
    return false;
}

bool
SnapshotView::parse(const std::uint8_t *data, std::size_t len)
{
    *this = SnapshotView{};
    if (len < snapshotHeaderBytes)
        return fail("snapshot shorter than header");

    Cursor header(data, len);
    std::uint32_t magic = 0;
    std::uint16_t version = 0;
    std::uint16_t sections = 0;
    std::uint32_t checksum = 0;
    header.readU32(magic);
    header.readU16(version);
    header.readU16(sections);
    header.readU64(seqNum);
    std::uint64_t ns = 0;
    header.readU64(ns);
    snapNs = ns;
    header.readU32(total);
    header.readU32(checksum);

    if (magic != snapshotMagic)
        return fail("bad snapshot magic");
    if (version != snapshotVersion)
        return fail(detail::format("unsupported snapshot version %u",
                                   version));
    if (total < snapshotHeaderBytes || total > len)
        return fail("snapshot truncated (total out of bounds)");
    const std::uint32_t want = telemetryChecksum(
        data + snapshotHeaderBytes, total - snapshotHeaderBytes);
    if (checksum != want)
        return fail("snapshot checksum mismatch");

    Cursor cur(data + snapshotHeaderBytes, total - snapshotHeaderBytes);
    for (std::uint16_t s = 0; s < sections; ++s) {
        std::uint32_t tag = 0;
        std::uint32_t bytes = 0;
        if (!cur.readU32(tag) || !cur.readU32(bytes) ||
            bytes > cur.remaining())
            return fail("section header truncated");
        Cursor body(data + snapshotHeaderBytes + cur.at(), bytes);
        // Advance past the section regardless of tag so unknown
        // sections are skippable (forward compatibility).
        cur.skip(bytes);
        switch (static_cast<SnapshotSection>(tag)) {
          case SnapshotSection::Metrics: {
            std::uint32_t count = 0;
            if (!body.readU32(count))
                return fail("metrics section truncated");
            metricSamples.reserve(count);
            for (std::uint32_t i = 0; i < count; ++i) {
                ExportSample e;
                std::uint8_t kind = 0;
                std::uint16_t labels = 0;
                if (!body.readU8(kind))
                    return fail("metric sample truncated");
                if (kind != counterSampleKind)
                    return fail(detail::format(
                        "unknown metric sample kind %u", kind));
                if (!body.readString(e.family) || !body.readU16(labels))
                    return fail("metric sample truncated");
                for (std::uint16_t l = 0; l < labels; ++l) {
                    std::string k, v;
                    if (!body.readString(k) || !body.readString(v))
                        return fail("metric label truncated");
                    e.labels.emplace_back(std::move(k), std::move(v));
                }
                e.labelStr = renderMetricLabels(e.labels);
                if (!body.readU64(e.counterVal))
                    return fail("counter value truncated");
                metricSamples.push_back(std::move(e));
            }
            sawMetrics = true;
            break;
          }
          case SnapshotSection::Ledger: {
            std::uint32_t count = 0;
            if (!body.readU32(count))
                return fail("ledger section truncated");
            rows.reserve(count);
            for (std::uint32_t i = 0; i < count; ++i) {
                LedgerRow row;
                std::uint32_t kind = 0;
                std::uint64_t ns_val = 0;
                if (!body.readU32(row.vm) || !body.readU32(row.vcpu) ||
                    !body.readU32(kind) || kind >= costKindCount ||
                    !body.readU32(row.code) ||
                    !body.readU64(row.events) ||
                    !body.readU64(ns_val))
                    return fail("ledger row truncated");
                row.kind = static_cast<CostKind>(kind);
                row.ns = ns_val;
                rows.push_back(row);
            }
            sawLedger = true;
            break;
          }
          case SnapshotSection::Trace: {
            std::uint16_t name_count = 0;
            if (!body.readU64(trEmitted) ||
                !body.readU64(trDropped) ||
                !body.readU16(name_count))
                return fail("trace section truncated");
            std::vector<std::string> names(name_count);
            for (std::uint16_t i = 0; i < name_count; ++i) {
                if (!body.readString(names[i]))
                    return fail("trace name table truncated");
            }
            std::uint32_t count = 0;
            if (!body.readU32(count))
                return fail("trace section truncated");
            tail.reserve(count);
            for (std::uint32_t i = 0; i < count; ++i) {
                TraceTailEvent ev;
                std::uint64_t ts = 0;
                std::uint16_t name = 0;
                std::uint8_t cat = 0;
                std::uint8_t phase = 0;
                if (!body.readU64(ts) || !body.readU64(ev.arg0) ||
                    !body.readU64(ev.arg1) ||
                    !body.readU64(ev.flowId) ||
                    !body.readU32(ev.track) || !body.readU16(name) ||
                    name >= name_count || !body.readU8(cat) ||
                    cat >= spanCatCount || !body.readU8(phase) ||
                    phase > static_cast<std::uint8_t>(
                                TracePhase::AsyncEnd))
                    return fail("trace event truncated");
                ev.ts = ts;
                ev.name = names[name];
                ev.cat = static_cast<SpanCat>(cat);
                ev.phase = static_cast<TracePhase>(phase);
                tail.push_back(std::move(ev));
            }
            sawTrace = true;
            break;
          }
          default:
            // Unknown section: skipped above, nothing to do.
            break;
        }
    }
    if (!cur.done())
        return fail("trailing bytes after last section");
    parsed = true;
    return true;
}

std::string
SnapshotView::prometheus() const
{
    return renderPrometheus(metricSamples);
}

std::string
SnapshotView::csvHeader() const
{
    return renderMetricsCsvHeader(metricSamples);
}

std::string
SnapshotView::csvRow() const
{
    return renderMetricsCsvRow(snapNs, metricSamples);
}

} // namespace elisa::sim
