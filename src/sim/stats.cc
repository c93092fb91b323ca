#include "sim/stats.hh"

#include <algorithm>
#include <cstring>

namespace elisa::sim
{

namespace
{

/** Room the first registration makes: every vCPU set fits in it. */
constexpr std::size_t initialCounters = 16;
constexpr std::size_t initialNameChars = 256;

} // anonymous namespace

std::uint64_t
StatSet::tagOf(std::string_view name)
{
    std::uint64_t head = 0;
    if (!name.empty())
        std::memcpy(&head, name.data(),
                    std::min<std::size_t>(name.size(), 8));
    return head ^ (std::uint64_t{name.size()} << 56);
}

StatId
StatSet::find(std::string_view name) const
{
    // From the newest name back: a name looked up by string after
    // construction was mostly registered late, on its first inc().
    const std::uint64_t tag = tagOf(name);
    const auto n = static_cast<StatId>(names.size());
    for (StatId sid = n; sid-- > 0;) {
        if (names[sid].tag == tag && nameOf(sid) == name)
            return sid;
    }
    return n;
}

StatId
StatSet::id(std::string_view name)
{
    // A miss returns size(), the id a new name gets.
    const StatId found = find(name);
    if (found < names.size())
        return found;
    if (values.empty()) {
        values.reserve(initialCounters);
        names.reserve(initialCounters);
        nameChars.reserve(initialNameChars);
    }
    names.push_back(Name{tagOf(name),
                         static_cast<std::uint32_t>(nameChars.size()),
                         static_cast<std::uint32_t>(name.size())});
    nameChars.append(name);
    values.push_back(0);
    return found;
}

std::uint64_t
StatSet::get(std::string_view name) const
{
    const StatId sid = find(name);
    return sid < values.size() ? values[sid] : 0;
}

void
StatSet::clear()
{
    std::fill(values.begin(), values.end(), 0);
}

const std::vector<StatId> &
StatSet::nameOrder() const
{
    if (byName.size() != names.size()) {
        for (auto sid = static_cast<StatId>(byName.size());
             sid < names.size(); ++sid) {
            byName.push_back(sid);
        }
        std::sort(byName.begin(), byName.end(),
                  [this](StatId a, StatId b) {
                      return nameOf(a) < nameOf(b);
                  });
    }
    return byName;
}

std::map<std::string, std::uint64_t>
StatSet::all() const
{
    std::map<std::string, std::uint64_t> out;
    forEach([&out](std::string_view name, std::uint64_t value) {
        out.emplace_hint(out.end(), name, value);
    });
    return out;
}

} // namespace elisa::sim
