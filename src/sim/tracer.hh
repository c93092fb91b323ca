/**
 * @file
 * Span-structured trace collection keyed to simulated time.
 *
 * A Tracer is a bounded ring buffer of typed events — span begin/end,
 * instants, and id-linked async spans — each stamped with the emitting
 * actor's simulated clock. It is the attribution instrument behind the
 * paper's latency story: one gate call decomposes into its four
 * EPTP switches plus prologue/payload/epilogue, one negotiation into
 * its hypercall hops, one injected fault into the exact span it hit.
 *
 * Cost discipline (mirrors sim::FaultPlan): subsystems hold a nullable
 * Tracer pointer; an absent tracer costs one pointer test per trace
 * point and nothing else. Event names are dense TraceName ids; the
 * names src/ emits are constants with the same id in every Tracer, so
 * the enabled hot path never hashes strings or caches lookups.
 *
 * Determinism: events carry only simulated timestamps and name ids,
 * never host time, so the same seeded run always produces a
 * byte-identical trace — both exporters format with integer math only.
 *
 * Exporters:
 *  - chromeJson(): Chrome trace_event JSON, loadable in Perfetto or
 *    about:tracing (spans nest per track; async spans link by id);
 *  - latencyReport(): per-category sim::Histogram text report of span
 *    durations (count / mean / p50 / p99 / max per span name).
 *
 * Layering: this file knows nothing about vCPUs or the hypervisor —
 * callers pass plain track ids (by convention the vCPU id) and
 * timestamps, so the subsystem sits at the bottom of the tree next to
 * Clock and FaultPlan.
 */

#ifndef ELISA_SIM_TRACER_HH
#define ELISA_SIM_TRACER_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/types.hh"
#include "sim/clock.hh"

namespace elisa::sim
{

/** Trace categories (one per instrumented layer). */
enum class SpanCat : std::uint8_t
{
    Hypercall,   ///< VMCALL dispatch in the hypervisor
    Gate,        ///< exit-less gate entry/exit and its sub-phases
    Negotiation, ///< attach request lifecycle (async, by RequestId)
    Net,         ///< per-packet datapath events
    Kvs,         ///< per-operation KVS events
    Fault,       ///< injected-fault annotations
    Cpu,         ///< raw instruction events (vmfunc, vmcall framing)
    Page,        ///< demand-paging events (page-in/out, reclaim)
    Telemetry,   ///< telemetry-plane events
};

/** Number of categories (array sizing). */
inline constexpr unsigned spanCatCount = 9;

/** Render a category (exporters / debugging). */
const char *spanCatToString(SpanCat cat);

/**
 * Every fixed event name the simulator emits, as X(enumerator,
 * string); hypercall span names are the only ones registered at run
 * time. One list feeds both TraceName and the name table each Tracer
 * starts with, so the two cannot drift apart.
 */
#define ELISA_EVENT_NAMES(X)                                           \
    X(Vmfunc, "vmfunc")                                                \
    X(Vmcall, "vmcall")                                                \
    X(FaultDrop, "fault_drop")                                         \
    X(FaultError, "fault_error")                                       \
    X(FaultDelay, "fault_delay")                                       \
    X(FaultDuplicate, "fault_duplicate")                               \
    X(FaultKillVm, "fault_kill_vm")                                    \
    X(GateCall, "gate_call")                                           \
    X(GateBatch, "gate_batch")                                         \
    X(EptpSwitch, "eptp_switch")                                       \
    X(StackSwap, "stack_swap")                                         \
    X(Payload, "payload")                                              \
    X(Return, "return")                                                \
    X(AttachRequest, "attach_request")                                 \
    X(Approved, "approved")                                            \
    X(Denied, "denied")                                                \
    X(TimedOut, "timed_out")                                           \
    X(QueryPending, "query_pending")                                   \
    X(Capability, "capability")                                        \
    X(CapRedeemed, "cap_redeemed")                                     \
    X(AttachRetry, "attach_retry")                                     \
    X(KvsGet, "kvs_get")                                               \
    X(KvsPut, "kvs_put")                                               \
    X(KvsRemove, "kvs_remove")                                         \
    X(KvsCas, "kvs_cas")                                               \
    X(NetTx, "net_tx")                                                 \
    X(NetRx, "net_rx")                                                 \
    X(PageIn, "page_in")                                               \
    X(ZeroFill, "zero_fill")                                           \
    X(FaultPageInError, "fault_page_in_error")                         \
    X(FaultPageInDelay, "fault_page_in_delay")

/**
 * Dense handle of an event name. The enumerators are the constant
 * names above and carry the same value in every Tracer; values from
 * Count on are names one Tracer registered at run time
 * (Tracer::intern: hypercall span names, names made up in tests).
 */
enum class TraceName : std::uint16_t
{
    Unknown, ///< renders as "?": an unset name is visibly wrong
#define ELISA_EVENT_NAME_ENUM(id, text) id,
    ELISA_EVENT_NAMES(ELISA_EVENT_NAME_ENUM)
#undef ELISA_EVENT_NAME_ENUM
    Count ///< first id intern() hands out
};

/** Event kinds, mapping 1:1 onto Chrome trace_event phases. */
enum class TracePhase : std::uint8_t
{
    Begin,        ///< span opens on a track ("ph":"B")
    End,          ///< span closes on a track ("ph":"E")
    Instant,      ///< point event on a track ("ph":"i")
    AsyncBegin,   ///< long-lived span opens, linked by flowId ("b")
    AsyncInstant, ///< point event within an async span ("n")
    AsyncEnd,     ///< async span closes ("e")
};

/** One recorded event (40 bytes; the ring stores these by value). */
struct TraceEvent
{
    SimNs ts = 0;              ///< emitting actor's simulated clock
    std::uint64_t arg0 = 0;    ///< event-specific annotation
    std::uint64_t arg1 = 0;    ///< event-specific annotation
    std::uint64_t flowId = 0;  ///< async link id (e.g. RequestId)
    std::uint32_t track = 0;   ///< actor lane (by convention vCPU id)
    TraceName name = TraceName::Unknown; ///< event name
    SpanCat cat = SpanCat::Cpu;
    TracePhase phase = TracePhase::Instant;
};

/**
 * Bounded trace collector. When the ring is full the oldest event is
 * overwritten (the trace keeps the most recent window); dropped()
 * reports how many were lost.
 */
class Tracer
{
  public:
    /** @param capacity ring size in events (must be positive). */
    explicit Tracer(std::size_t capacity = 1u << 16);

    /**
     * Resolve @p name to its id, registering it when new; a constant
     * name resolves to its TraceName enumerator. The only
     * string-keyed operation: for names known only at run time, once
     * per site, never per event.
     */
    TraceName intern(std::string_view name);

    /** The string a TraceName stands for. */
    const std::string &nameOf(TraceName id) const;

    // ---- emission (hot path; callers null-check the Tracer*) -------
    void
    begin(SpanCat cat, TraceName name, std::uint32_t track, SimNs ts,
          std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
        push({ts, a0, a1, 0, track, name, cat, TracePhase::Begin});
    }

    void
    end(SpanCat cat, TraceName name, std::uint32_t track, SimNs ts,
        std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
        push({ts, a0, a1, 0, track, name, cat, TracePhase::End});
    }

    void
    instant(SpanCat cat, TraceName name, std::uint32_t track,
            SimNs ts, std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
        push({ts, a0, a1, 0, track, name, cat, TracePhase::Instant});
    }

    void
    asyncBegin(SpanCat cat, TraceName name, std::uint64_t flow,
               std::uint32_t track, SimNs ts, std::uint64_t a0 = 0,
               std::uint64_t a1 = 0)
    {
        push({ts, a0, a1, flow, track, name, cat,
              TracePhase::AsyncBegin});
    }

    void
    asyncInstant(SpanCat cat, TraceName name, std::uint64_t flow,
                 std::uint32_t track, SimNs ts, std::uint64_t a0 = 0,
                 std::uint64_t a1 = 0)
    {
        push({ts, a0, a1, flow, track, name, cat,
              TracePhase::AsyncInstant});
    }

    void
    asyncEnd(SpanCat cat, TraceName name, std::uint64_t flow,
             std::uint32_t track, SimNs ts, std::uint64_t a0 = 0,
             std::uint64_t a1 = 0)
    {
        push({ts, a0, a1, flow, track, name, cat, TracePhase::AsyncEnd});
    }

    // ---- introspection --------------------------------------------
    /** Events currently held (<= capacity). */
    std::size_t size() const { return held; }

    /** Ring capacity in events. */
    std::size_t capacity() const { return ring.size(); }

    /** Total events ever emitted. */
    std::uint64_t emitted() const { return total; }

    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const { return total - held; }

    /**
     * Process-unique id of this Tracer instance. Readers that follow
     * the event stream across calls (FlightRecorder::observe) key on
     * it instead of the object address, which a successor Tracer may
     * reuse while holding none of its predecessor's events.
     */
    std::uint64_t serial() const { return serialNum; }

    /** The held events, oldest first (tests / exporters). */
    std::vector<TraceEvent> snapshot() const;

    /** Forget all events (interned names are kept). */
    void clear();

    // ---- exporters -------------------------------------------------
    /**
     * Chrome trace_event JSON (the "traceEvents" array form), byte-
     * deterministic for a given event sequence. Timestamps are
     * microseconds with the nanosecond fraction preserved.
     */
    std::string chromeJson() const;

    /**
     * Per-category latency report: durations of matched Begin/End
     * pairs (per track) and AsyncBegin/AsyncEnd pairs (per flowId)
     * aggregated into sim::Histogram lines, sorted by category then
     * name. Unmatched events (ring wraparound, spans still open) are
     * counted, never guessed at.
     */
    std::string latencyReport() const;

  private:
    void
    push(const TraceEvent &event)
    {
        ring[head] = event;
        head = head + 1 == ring.size() ? 0 : head + 1;
        if (held < ring.size())
            ++held;
        ++total;
    }

    std::vector<TraceEvent> ring;
    std::size_t head = 0; ///< next write slot
    std::size_t held = 0;
    std::uint64_t total = 0;
    std::uint64_t serialNum;
    std::map<std::string, TraceName, std::less<>> index;
    std::vector<std::string> names;
};

/**
 * RAII span: begin on construction (when a tracer is present), end —
 * at the then-current simulated time — on destruction, including
 * exceptional unwinds (VM exits), so spans never leak open across a
 * fault. An instance built with a null tracer is inert.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, SpanCat cat, TraceName name,
               std::uint32_t track, const SimClock &clock,
               std::uint64_t a0 = 0, std::uint64_t a1 = 0)
        : tr(tracer), clk(&clock), spanCat(cat), spanName(name),
          spanTrack(track)
    {
        if (tr)
            tr->begin(spanCat, spanName, spanTrack, clk->now(), a0, a1);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Annotate the closing event (e.g. with the handler's rc). */
    void
    setEndArgs(std::uint64_t a0, std::uint64_t a1 = 0)
    {
        endArg0 = a0;
        endArg1 = a1;
    }

    ~ScopedSpan()
    {
        if (tr)
            tr->end(spanCat, spanName, spanTrack, clk->now(), endArg0,
                    endArg1);
    }

  private:
    Tracer *tr;
    const SimClock *clk;
    SpanCat spanCat;
    TraceName spanName;
    std::uint32_t spanTrack;
    std::uint64_t endArg0 = 0;
    std::uint64_t endArg1 = 0;
};

} // namespace elisa::sim

#endif // ELISA_SIM_TRACER_HH
