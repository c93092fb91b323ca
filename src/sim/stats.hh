/**
 * @file
 * Lightweight statistics: named integer counters.
 *
 * Counters are *interned*: a name is resolved to a dense StatId once
 * (at subsystem construction), and hot paths increment by array index.
 * The name-keyed API (get/all) is kept for tests and reporting;
 * only registration pays the string lookup.
 */

#ifndef ELISA_SIM_STATS_HH
#define ELISA_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace elisa::sim
{

/**
 * Dense handle of one counter within a StatSet. Obtained once via
 * StatSet::id(); incrementing through it is an array index, no string
 * lookup. Only meaningful for the StatSet that issued it.
 */
using StatId = std::uint32_t;

/**
 * A named bag of integer counters, used by subsystems to export event
 * counts (VM exits, EPT violations, TLB misses, packets dropped, ...).
 */
class StatSet
{
  public:
    /**
     * Resolve @p name to its StatId, registering it at zero when new.
     * This is the only string-keyed lookup; call it once at
     * construction time, never per event.
     */
    StatId id(const std::string &name);

    /** Increment the interned counter @p sid (hot path). */
    void
    inc(StatId sid, std::uint64_t delta = 1)
    {
        values[sid] += delta;
    }

    /**
     * Increment @p name by @p delta (creating it at 0 if absent).
     * Compatibility/slow-path form: pays a map lookup per call — keep
     * it off per-access and per-call paths (use id() + inc(StatId)).
     */
    void
    inc(const std::string &name, std::uint64_t delta = 1)
    {
        values[id(name)] += delta;
    }

    /** Read an interned counter. */
    std::uint64_t get(StatId sid) const { return values[sid]; }

    /** Read a counter by name (0 if it was never registered). */
    std::uint64_t get(const std::string &name) const;

    /** Reset every counter to zero (registrations are kept). */
    void clear();

    /** Number of registered counters. */
    std::size_t size() const { return values.size(); }

    /** Materialize all counters, name-keyed (iteration in tests). */
    std::map<std::string, std::uint64_t> all() const;

  private:
    std::map<std::string, StatId> index;
    std::vector<std::uint64_t> values;
};

} // namespace elisa::sim

#endif // ELISA_SIM_STATS_HH
