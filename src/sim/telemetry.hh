/**
 * @file
 * Telemetry publication layer: versioned, byte-deterministic snapshot
 * serialization of the observability state (Metrics registry,
 * ExitLedger rows, Tracer tail) plus the seqlock-style double-buffered
 * region layout those snapshots are published through.
 *
 * The paper's thesis applied to observability: instead of the host
 * pushing metrics out-of-band, a *monitor guest* scrapes them over the
 * same exit-less shared-memory mechanism the data plane uses
 * (hv::TelemetryPublisher writes the region; guest::MonitorGuest
 * scrapes it over an ELISA gate, a VMCALL marshalling service, or an
 * ivshmem window — three schemes, one wire format).
 *
 * Wire format (all little-endian, integer-only):
 *
 *   SnapshotHeader (32 bytes)
 *     u32 magic      'ELTS'
 *     u16 version    snapshotVersion
 *     u16 sections   section count
 *     u64 seq        publication sequence number
 *     u64 sim_ns     publication instant
 *     u32 total      whole snapshot size incl. header
 *     u32 checksum   FNV-1a over payload bytes [32, total)
 *   then per section: { u32 tag; u32 bytes; payload }
 *
 * Sections (a consumer skips tags it does not know):
 *   Metrics — flattened sim::ExportSamples, each { u8 kind (always
 *     0: a counter); family; labels; u64 value }, so
 *     SnapshotView::prometheus() / csvRow() re-render through the
 *     exact renderers the host-side Metrics exporters use:
 *     byte-identical by construction. A parser rejects any other kind.
 *   Ledger  — (vm, vcpu, kind, code, events, ns) rows in slot order.
 *   Trace   — the most recent N tracer events with a compact local
 *     name table (first-appearance order).
 *
 * Region layout (TelemetryRegionLayout): a 64-byte header with a
 * seqlock word and two snapshot slots. The writer serializes into the
 * inactive slot, then seq++ (odd) / flip active / seq++ (even); a
 * reader snapshots seq, copies the active slot, re-reads seq and
 * retries on any change. The protocol is lock-free for the reader and
 * wait-free for the writer — no exit, no hypercall, exactly the
 * shared-access story the paper tells.
 */

#ifndef ELISA_SIM_TELEMETRY_HH
#define ELISA_SIM_TELEMETRY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "sim/exit_ledger.hh"
#include "sim/metrics.hh"
#include "sim/tracer.hh"

namespace elisa::sim
{

// ---- snapshot wire format ------------------------------------------

/** 'ELTS' — first word of every serialized snapshot. */
inline constexpr std::uint32_t snapshotMagic = 0x53544C45u;

/** Bumped on any incompatible layout change. */
inline constexpr std::uint16_t snapshotVersion = 1;

/** Section tags (u32 on the wire). */
enum class SnapshotSection : std::uint32_t
{
    Metrics = 1,
    Ledger = 2,
    Trace = 3,
};

/** Fixed header size in bytes. */
inline constexpr std::size_t snapshotHeaderBytes = 32;

/**
 * What a snapshot is built from. Null members simply omit their
 * section (same nullable-pointer discipline as Tracer/ExitLedger
 * installation).
 */
struct TelemetrySources
{
    const Metrics *metrics = nullptr;
    const ExitLedger *ledger = nullptr;
    const Tracer *tracer = nullptr;
};

/**
 * Serialize one snapshot. Deterministic: the same source state, @p seq
 * and @p now always produce the same bytes.
 *
 * @param trace_tail_events cap on how many of the tracer's most
 *        recent events are included (0 = omit the section even when a
 *        tracer is present).
 */
std::vector<std::uint8_t>
serializeTelemetrySnapshot(const TelemetrySources &sources,
                           std::uint64_t seq, SimNs now,
                           std::size_t trace_tail_events = 256);

/** FNV-1a 32-bit (the snapshot checksum). */
std::uint32_t telemetryChecksum(const std::uint8_t *data,
                                std::size_t len);

/**
 * Parsed snapshot. parse() validates magic, version, bounds and
 * checksum before touching any section; a failed parse leaves the
 * view empty with error() describing the rejection (a scraper that
 * raced a publication retries instead of consuming torn bytes —
 * though the seqlock already makes that unreachable in practice).
 */
class SnapshotView
{
  public:
    /** One deserialized ledger row (no histogram on the wire). */
    struct LedgerRow
    {
        std::uint32_t vm = 0;
        std::uint32_t vcpu = 0;
        CostKind kind = CostKind::Exit;
        std::uint32_t code = 0;
        std::uint64_t events = 0;
        SimNs ns = 0;
    };

    /** One deserialized trace-tail event (name resolved to text). */
    struct TraceTailEvent
    {
        SimNs ts = 0;
        std::uint64_t arg0 = 0;
        std::uint64_t arg1 = 0;
        std::uint64_t flowId = 0;
        std::uint32_t track = 0;
        std::string name;
        SpanCat cat = SpanCat::Cpu;
        TracePhase phase = TracePhase::Instant;
    };

    /** Parse @p len bytes; false (and error()) on any malformation. */
    bool parse(const std::uint8_t *data, std::size_t len);

    bool ok() const { return parsed; }
    const std::string &error() const { return parseError; }

    std::uint64_t seq() const { return seqNum; }
    SimNs simNs() const { return snapNs; }
    std::uint32_t totalBytes() const { return total; }

    bool hasMetrics() const { return sawMetrics; }
    bool hasLedger() const { return sawLedger; }
    bool hasTrace() const { return sawTrace; }

    const std::vector<ExportSample> &samples() const { return metricSamples; }
    const std::vector<LedgerRow> &ledgerRows() const { return rows; }
    const std::vector<TraceTailEvent> &traceTail() const { return tail; }

    /** Tracer lifetime counters carried for drop diagnostics. */
    std::uint64_t traceEmitted() const { return trEmitted; }
    std::uint64_t traceDropped() const { return trDropped; }

    // ---- re-export (the monitor guest's output) --------------------
    /** renderPrometheus over the deserialized samples. */
    std::string prometheus() const;

    /** renderMetricsCsvHeader over the deserialized samples. */
    std::string csvHeader() const;

    /** renderMetricsCsvRow at this snapshot's sim_ns. */
    std::string csvRow() const;

  private:
    bool fail(std::string why);

    bool parsed = false;
    std::string parseError;
    std::uint64_t seqNum = 0;
    SimNs snapNs = 0;
    std::uint32_t total = 0;
    bool sawMetrics = false;
    bool sawLedger = false;
    bool sawTrace = false;
    std::vector<ExportSample> metricSamples;
    std::vector<LedgerRow> rows;
    std::vector<TraceTailEvent> tail;
    std::uint64_t trEmitted = 0;
    std::uint64_t trDropped = 0;
};

// ---- publication region layout -------------------------------------

/**
 * Byte offsets of the seqlock-fronted double-buffered publication
 * region. Shared by the writer (hv::TelemetryPublisher, host-side
 * stores) and every reader path (gate sub-functions, the VMCALL
 * marshalling service, direct ivshmem loads) so there is exactly one
 * definition of the layout.
 */
struct TelemetryRegionLayout
{
    /** 'ELTR' — first word of an initialized region. */
    static constexpr std::uint32_t magic = 0x52544C45u;

    static constexpr std::uint64_t offMagic = 0;    ///< u32
    static constexpr std::uint64_t offVersion = 4;  ///< u16
    static constexpr std::uint64_t offSeq = 8;      ///< u64 seqlock
    static constexpr std::uint64_t offActive = 16;  ///< u32 slot 0/1
    static constexpr std::uint64_t offSlotBytes = 20; ///< u32 capacity
    static constexpr std::uint64_t offLen0 = 24;    ///< u32 slot-0 len
    static constexpr std::uint64_t offLen1 = 28;    ///< u32 slot-1 len
    static constexpr std::uint64_t offPubCount = 32;  ///< u64
    static constexpr std::uint64_t offLastPubNs = 40; ///< u64
    static constexpr std::uint64_t headerBytes = 64;

    /** Offset of snapshot slot @p index (0 or 1). */
    static constexpr std::uint64_t
    slotOffset(std::uint32_t index, std::uint32_t slot_bytes)
    {
        return headerBytes +
               static_cast<std::uint64_t>(index) * slot_bytes;
    }

    /** Whole-region size for a given per-slot capacity. */
    static constexpr std::uint64_t
    regionBytes(std::uint32_t slot_bytes)
    {
        return headerBytes + 2ull * slot_bytes;
    }
};

} // namespace elisa::sim

#endif // ELISA_SIM_TELEMETRY_HH
