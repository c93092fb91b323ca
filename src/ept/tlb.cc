#include "ept/tlb.hh"

#include "base/bitops.hh"
#include "base/logging.hh"

namespace elisa::ept
{

Tlb::Tlb(std::size_t entry_count)
    : entries(entry_count), indexMask(entry_count - 1), ctxGen{1},
      freeIds{0}
{
    fatal_if(!isPowerOf2(entry_count),
             "TLB entry count must be a power of two");
}

void
Tlb::attachStats(sim::StatSet &set)
{
    stats = &set;
    hitId = set.id("tlb_hit");
    missId = set.id("tlb_miss");
    flushId = set.id("tlb_flush");
}

std::uint32_t
Tlb::contextOf(std::uint64_t eptp)
{
    for (const Context &c : live) {
        if (c.eptp == eptp)
            return c.id;
    }
    std::uint32_t id;
    if (!freeIds.empty()) {
        id = freeIds.back();
        freeIds.pop_back();
    } else {
        id = static_cast<std::uint32_t>(ctxGen.size());
        ctxGen.push_back(1);
    }
    live.push_back({eptp, id});
    return id;
}

void
Tlb::retire(std::uint32_t id)
{
    ++ctxGen[id];
    freeIds.push_back(id);
}

void
Tlb::fill(std::uint64_t eptp, Gpa gpa, const Translation &xlat,
          bool dirty_known)
{
    const std::uint32_t id = contextOf(eptp);
    Entry &e = entries[indexOf(eptp, gpa)];
    e.eptp = eptp;
    e.gpaPage = pageAlignDown(gpa);
    e.hpaPage = pageAlignDown(xlat.hpa);
    e.gen = ctxGen[id];
    e.ctx = id;
    e.perms = xlat.perms;
    e.dirtyKnown = dirty_known;
    // The slot may have held another page's translation: L0 copies of
    // the evicted entry must not survive it.
    ++epochCount;
}

bool
Tlb::dirtyKnown(std::uint64_t eptp, Gpa gpa) const
{
    const Entry &e = entries[indexOf(eptp, gpa)];
    return matches(e, eptp, gpa) && e.dirtyKnown;
}

void
Tlb::setDirtyKnown(std::uint64_t eptp, Gpa gpa)
{
    Entry &e = entries[indexOf(eptp, gpa)];
    if (matches(e, eptp, gpa))
        e.dirtyKnown = true;
}

void
Tlb::flushAll()
{
    for (const Context &c : live)
        retire(c.id);
    live.clear();
    ++flushCount;
    ++epochCount;
    if (stats)
        stats->inc(flushId);
}

void
Tlb::flushEptp(std::uint64_t eptp)
{
    for (Context &c : live) {
        if (c.eptp == eptp) {
            retire(c.id);
            c = live.back();
            live.pop_back();
            break;
        }
    }
    ++flushCount;
    ++epochCount;
    if (stats)
        stats->inc(flushId);
}

std::size_t
Tlb::validCount() const
{
    std::size_t count = 0;
    for (const auto &e : entries)
        count += e.gen == ctxGen[e.ctx] ? 1 : 0;
    return count;
}

} // namespace elisa::ept
