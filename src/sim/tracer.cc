#include "sim/tracer.hh"

#include <algorithm>
#include <atomic>
#include <limits>

#include "base/logging.hh"
#include "base/strutil.hh"
#include "sim/histogram.hh"

namespace elisa::sim
{

const char *
spanCatToString(SpanCat cat)
{
    switch (cat) {
      case SpanCat::Hypercall:
        return "hypercall";
      case SpanCat::Gate:
        return "gate";
      case SpanCat::Negotiation:
        return "negotiation";
      case SpanCat::Net:
        return "net";
      case SpanCat::Kvs:
        return "kvs";
      case SpanCat::Fault:
        return "fault";
      case SpanCat::Cpu:
        return "cpu";
      case SpanCat::Page:
        return "page";
    }
    return "?";
}

Tracer::Tracer(std::size_t capacity)
{
    static std::atomic<std::uint64_t> nextSerial = 0;
    serialNum = ++nextSerial;
    fatal_if(capacity == 0, "tracer ring capacity must be positive");
    ring.resize(capacity);
    // Id 0 renders as "?" so an uninitialized name field is visibly
    // wrong instead of aliasing a real event name.
    names.push_back("?");
    // The constant names, in TraceName order; a repeated string would
    // shift every later id off its enumerator.
#define ELISA_EVENT_NAME_INTERN(id, text) intern(text);
    ELISA_EVENT_NAMES(ELISA_EVENT_NAME_INTERN)
#undef ELISA_EVENT_NAME_INTERN
    panic_if(names.size() != static_cast<std::size_t>(TraceName::Count),
             "duplicate string in ELISA_EVENT_NAMES");
}

TraceName
Tracer::intern(std::string_view name)
{
    auto it = index.find(name);
    if (it != index.end())
        return it->second;
    fatal_if(names.size() > std::numeric_limits<std::uint16_t>::max(),
             "trace name table overflow");
    const auto id = static_cast<TraceName>(names.size());
    names.emplace_back(name);
    index.emplace(std::string(name), id);
    return id;
}

const std::string &
Tracer::nameOf(TraceName id) const
{
    const auto slot = static_cast<std::size_t>(id);
    panic_if(slot >= names.size(), "bad trace name id %zu", slot);
    return names[slot];
}

std::vector<TraceEvent>
Tracer::snapshot() const
{
    std::vector<TraceEvent> out;
    out.reserve(held);
    // Oldest event: `head` when the ring has wrapped, slot 0 otherwise.
    const std::size_t start = held == ring.size() ? head : 0;
    for (std::size_t i = 0; i < held; ++i)
        out.push_back(ring[(start + i) % ring.size()]);
    return out;
}

void
Tracer::clear()
{
    head = 0;
    held = 0;
    total = 0;
}

namespace
{

/** Chrome "ph" letter for an event phase. */
char
phaseLetter(TracePhase phase)
{
    switch (phase) {
      case TracePhase::Begin:
        return 'B';
      case TracePhase::End:
        return 'E';
      case TracePhase::Instant:
        return 'i';
      case TracePhase::AsyncBegin:
        return 'b';
      case TracePhase::AsyncInstant:
        return 'n';
      case TracePhase::AsyncEnd:
        return 'e';
    }
    return '?';
}

bool
isAsync(TracePhase phase)
{
    return phase == TracePhase::AsyncBegin ||
           phase == TracePhase::AsyncInstant ||
           phase == TracePhase::AsyncEnd;
}

} // anonymous namespace

std::string
Tracer::chromeJson() const
{
    // All formatting is integer math: same events => same bytes.
    std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent &ev : snapshot()) {
        if (!first)
            out += ',';
        first = false;
        // Chrome timestamps are microseconds; keep the nanosecond
        // fraction as three fixed decimals.
        out += detail::format(
            "\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
            "\"ts\":%llu.%03llu,\"pid\":0,\"tid\":%u",
            nameOf(ev.name).c_str(), spanCatToString(ev.cat),
            phaseLetter(ev.phase),
            (unsigned long long)(ev.ts / 1000),
            (unsigned long long)(ev.ts % 1000), ev.track);
        if (isAsync(ev.phase)) {
            out += detail::format(",\"id\":\"0x%llx\"",
                                  (unsigned long long)ev.flowId);
        }
        if (ev.phase == TracePhase::Instant)
            out += ",\"s\":\"t\"";
        out += detail::format(
            ",\"args\":{\"a0\":%llu,\"a1\":%llu}}",
            (unsigned long long)ev.arg0, (unsigned long long)ev.arg1);
    }
    out += "\n]}\n";
    return out;
}

std::string
Tracer::latencyReport() const
{
    // Key: (category, name id) -> histogram of span durations.
    std::map<std::pair<unsigned, TraceName>, Histogram> spans;
    // Open synchronous spans, one LIFO stack per (track, name).
    std::map<std::pair<std::uint32_t, TraceName>, std::vector<SimNs>>
        open;
    // Open async spans by (flowId, name).
    std::map<std::pair<std::uint64_t, TraceName>, SimNs> openAsync;
    std::uint64_t unmatched = 0;

    for (const TraceEvent &ev : snapshot()) {
        const auto key = std::make_pair(
            static_cast<unsigned>(ev.cat), ev.name);
        switch (ev.phase) {
          case TracePhase::Begin:
            open[{ev.track, ev.name}].push_back(ev.ts);
            break;
          case TracePhase::End: {
            auto it = open.find({ev.track, ev.name});
            if (it == open.end() || it->second.empty()) {
                // Its Begin fell off the ring (or never happened).
                ++unmatched;
                break;
            }
            spans[key].record(ev.ts - it->second.back());
            it->second.pop_back();
            break;
          }
          case TracePhase::AsyncBegin:
            openAsync[{ev.flowId, ev.name}] = ev.ts;
            break;
          case TracePhase::AsyncEnd: {
            auto it = openAsync.find({ev.flowId, ev.name});
            if (it == openAsync.end()) {
                ++unmatched;
                break;
            }
            spans[key].record(ev.ts - it->second);
            openAsync.erase(it);
            break;
          }
          case TracePhase::Instant:
          case TracePhase::AsyncInstant:
            break;
        }
    }

    std::uint64_t still_open = unmatched;
    for (const auto &[key, stack] : open)
        still_open += stack.size();
    still_open += openAsync.size();

    // Sort rows by (category name, span name) for a stable report.
    std::vector<std::string> rows;
    for (const auto &[key, hist] : spans) {
        rows.push_back(detail::format(
            "[%-11s] %-24s %s",
            spanCatToString(static_cast<SpanCat>(key.first)),
            nameOf(key.second).c_str(), hist.summary().c_str()));
    }
    std::sort(rows.begin(), rows.end());

    std::string out = "=== trace latency report ===\n";
    out += detail::format(
        "events=%llu held=%zu dropped=%llu unmatched_or_open=%llu\n",
        (unsigned long long)total, held, (unsigned long long)dropped(),
        (unsigned long long)still_open);
    for (const std::string &line : rows) {
        out += line;
        out += '\n';
    }
    return out;
}

} // namespace elisa::sim
