#include "spans.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace perfbench
{

std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<SpanIndex>> children(spans.size());
    for (SpanIndex i = 0; i < spans.size(); ++i) {
        const SpanIndex parent = spans[i].parent;
        if (parent != noParent && parent < spans.size())
            children[parent].push_back(i);
    }

    std::vector<std::int64_t> self(spans.size());
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (SpanIndex i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        cover.clear();
        for (SpanIndex c : children[i]) {
            const std::int64_t lo = std::max(spans[c].startNs, span.startNs);
            const std::int64_t hi = std::min(spans[c].endNs, span.endNs);
            if (lo < hi)
                cover.emplace_back(lo, hi);
        }
        std::sort(cover.begin(), cover.end());
        std::int64_t covered = 0;
        std::int64_t runLo = 0, runHi = 0;
        bool inRun = false;
        for (const auto &[lo, hi] : cover) {
            if (inRun && lo <= runHi) {
                runHi = std::max(runHi, hi);
                continue;
            }
            if (inRun)
                covered += runHi - runLo;
            runLo = lo;
            runHi = hi;
            inRun = true;
        }
        if (inRun)
            covered += runHi - runLo;
        self[i] = (span.endNs - span.startNs) - covered;
    }
    return self;
}

SpanName
SpanRecorder::intern(std::string_view name)
{
    if (auto it = ids.find(name); it != ids.end())
        return it->second;
    const SpanName id = static_cast<SpanName>(names.size());
    names.emplace_back(name);
    ids.emplace(std::string(name), id);
    return id;
}

std::vector<Span>
SpanRecorder::take()
{
    // Open spans' parent links index into the current batch.
    if (!open.empty())
        throw std::logic_error("SpanRecorder::take with a span open");
    std::vector<Span> out;
    out.swap(batch);
    return out;
}

} // namespace perfbench
