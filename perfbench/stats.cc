#include "stats.hh"

#include <algorithm>
#include <cctype>

namespace perfbench
{

double
sliceRate(const std::vector<std::uint64_t> &ops,
          const std::vector<std::int64_t> &ns)
{
    std::vector<double> rates;
    for (std::size_t i = 0; i < ops.size() && i < ns.size(); ++i) {
        if (ns[i] > 0) {
            rates.push_back(static_cast<double>(ops[i]) * 1e9 /
                            static_cast<double>(ns[i]));
        }
    }
    if (rates.empty())
        return 0.0;
    // Nearest rank: the smallest rate at or above 90 % of the slices.
    const std::size_t rank = (rates.size() * 9 + 9) / 10;
    std::nth_element(rates.begin(), rates.begin() + (rank - 1),
                     rates.end());
    return rates[rank - 1];
}

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name.front()))) {
        return false;
    }
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '.' || c == '-';
    });
}

void
SpanStats::group(SpanName group_key, const std::vector<SpanName> &parts)
{
    for (SpanName part : parts)
        partOf[part] = group_key;
    groups.try_emplace(group_key, 6, 1ull << 40);
}

void
SpanStats::fold(const std::vector<Span> &spans)
{
    const std::vector<std::int64_t> self = selfTimes(spans);
    std::map<std::pair<SpanName, std::uint64_t>, std::int64_t> opSums;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        const std::int64_t dur = span.endNs - span.startNs;
        NameStats &stats = byName[span.name];
        stats.ns.record(static_cast<std::uint64_t>(std::max<std::int64_t>(
            dur, 0)));
        stats.selfNs += self[i];
        if (span.parent != noParent && span.parent < spans.size())
            ++byName[spans[span.parent].name].children;
        if (auto it = partOf.find(span.name); it != partOf.end())
            opSums[{it->second, span.op}] += dur;
    }
    for (const auto &[key, sum] : opSums) {
        groups.at(key.first).record(
            static_cast<std::uint64_t>(std::max<std::int64_t>(sum, 0)));
    }
}

const NameStats &
SpanStats::of(SpanName name)
{
    return byName[name];
}

const elisa::sim::Histogram &
SpanStats::groupOf(SpanName group_key)
{
    return groups.try_emplace(group_key, 6, 1ull << 40).first->second;
}

} // namespace perfbench
