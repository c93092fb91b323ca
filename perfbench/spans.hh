/**
 * @file
 * Host-time span recorder for the traced benchmark run.
 *
 * A span covers one call the benchmark makes into a layer's public API
 * (Hypervisor construction, createVm, Gate::call, a decorated KvsClient
 * or NetPath call, ...). Each span records its name, host start and
 * end, the span open around it (its parent) and the operation it
 * belongs to. Spans are kept in memory; the benchmark folds them into
 * per-name histograms between measured slices, outside the timed
 * region, and writes a capped dump when the run ends.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

/** Host monotonic clock, in nanoseconds. */
inline std::int64_t
hostNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Interned span name. */
using SpanName = std::uint32_t;

/** Index of a span in its recorder's current batch. */
using SpanIndex = std::uint32_t;

/** Parent value of a root span. */
inline constexpr SpanIndex noParent = ~SpanIndex{0};

/** One recorded call. */
struct Span
{
    SpanName name = 0;
    SpanIndex parent = noParent;
    std::uint64_t op = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * that its direct children cover (overlapping or back-to-back children
 * are merged, and children are clipped to the parent's interval).
 * Spans whose parent lies outside @p spans count as roots.
 */
std::vector<std::int64_t> selfTimes(const std::vector<Span> &spans);

/**
 * Records spans of one thread. Not thread-safe; the benchmark is
 * single-threaded by design.
 */
class SpanRecorder
{
  public:
    /** Intern @p name (idempotent). */
    SpanName intern(std::string_view name);

    /** The string behind an interned name. */
    const std::string &nameOf(SpanName name) const { return names[name]; }

    /** Start a new operation; spans opened from now on belong to it. */
    std::uint64_t
    newOp()
    {
        return currentOp = ++lastOp;
    }

    /** The operation new spans are attributed to. */
    std::uint64_t op() const { return currentOp; }

    /** Open a span under the innermost open span. */
    SpanIndex
    begin(SpanName name)
    {
        const SpanIndex idx = static_cast<SpanIndex>(batch.size());
        batch.push_back({name, open.empty() ? noParent : open.back(),
                         currentOp, hostNowNs(), 0});
        open.push_back(idx);
        return idx;
    }

    /** Close span @p idx (must be the innermost); returns its ns. */
    std::int64_t
    end(SpanIndex idx)
    {
        Span &span = batch[idx];
        span.endNs = hostNowNs();
        open.pop_back();
        return span.endNs - span.startNs;
    }

    /** Spans recorded since the last take(). */
    const std::vector<Span> &spans() const { return batch; }

    /**
     * Hand over the recorded batch and start an empty one. Only valid
     * with no span open (between slices).
     */
    std::vector<Span> take();

  private:
    std::vector<std::string> names;
    std::map<std::string, SpanName, std::less<>> ids;
    std::vector<Span> batch;
    std::vector<SpanIndex> open;
    std::uint64_t currentOp = 0;
    std::uint64_t lastOp = 0;
};

/** RAII span; records nothing when the recorder is null. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder *recorder, SpanName name) : rec(recorder)
    {
        if (rec)
            idx = rec->begin(name);
    }

    ~SpanScope()
    {
        if (rec)
            rec->end(idx);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder *rec;
    SpanIndex idx = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
