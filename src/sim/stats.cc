#include "sim/stats.hh"

namespace elisa::sim
{

StatId
StatSet::id(const std::string &name)
{
    auto it = index.find(name);
    if (it != index.end())
        return it->second;
    const StatId sid = static_cast<StatId>(values.size());
    index.emplace(name, sid);
    values.push_back(0);
    return sid;
}

std::uint64_t
StatSet::get(const std::string &name) const
{
    auto it = index.find(name);
    return it == index.end() ? 0 : values[it->second];
}

void
StatSet::clear()
{
    for (auto &v : values)
        v = 0;
}

std::map<std::string, std::uint64_t>
StatSet::all() const
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, sid] : index)
        out.emplace(name, values[sid]);
    return out;
}

} // namespace elisa::sim
