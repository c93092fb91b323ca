#include "ept/tlb.hh"

#include <iterator>

#include "base/bitops.hh"
#include "base/logging.hh"

namespace elisa::ept
{

namespace
{

/** True once this thread's spare list is gone (thread exit). */
thread_local bool sparesGone = false;

/** Spare arrays kept per thread; more would only pin memory. */
constexpr std::size_t maxSpares = 8;

} // anonymous namespace

struct Tlb::SpareList
{
    /** A dead Tlb's entry array, waiting for a Tlb of its size. */
    struct Spare
    {
        std::vector<Entry> entries;
        /** Context ids the dead Tlb had made: bounds every entry's ctx. */
        std::size_t contexts = 0;
        /** The dead Tlb's last generation: bounds every entry's gen. */
        std::uint64_t lastGen = 0;
    };

    std::vector<Spare> spares;

    ~SpareList() { sparesGone = true; }
};

Tlb::SpareList &
Tlb::spareList()
{
    thread_local SpareList list;
    return list;
}

Tlb::Tlb(std::size_t entry_count) : indexMask(entry_count - 1)
{
    fatal_if(!isPowerOf2(entry_count),
             "TLB entry count must be a power of two");
    std::size_t contexts = 1;
    if (!sparesGone) {
        auto &spares = spareList().spares;
        for (auto it = spares.rbegin(); it != spares.rend(); ++it) {
            if (it->entries.size() == entry_count) {
                entries = std::move(it->entries);
                contexts = it->contexts;
                lastGen = it->lastGen;
                spares.erase(std::next(it).base());
                break;
            }
        }
    }
    if (entries.empty())
        entries.resize(entry_count);
    // One generation above every one the array holds, for every id its
    // entries may name; ids are handed out from 0 up.
    ctxGen.assign(contexts, ++lastGen);
    for (std::size_t id = contexts; id-- > 0;)
        freeIds.push_back(static_cast<std::uint32_t>(id));
}

Tlb::~Tlb()
{
    if (sparesGone)
        return;
    auto &spares = spareList().spares;
    if (spares.size() < maxSpares)
        spares.push_back({std::move(entries), ctxGen.size(), lastGen});
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
        ctxGen.push_back(++lastGen);
    }
    live.push_back({eptp, id});
    return id;
}

void
Tlb::retire(std::uint32_t id)
{
    ctxGen[id] = ++lastGen;
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
