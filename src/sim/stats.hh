/**
 * @file
 * Lightweight statistics: named integer counters.
 *
 * Counters are *interned*: a name is resolved to a dense StatId once
 * (at subsystem construction), and hot paths increment by array index.
 * The name-keyed API (get/all) is kept for tests and reporting;
 * only registration pays the string lookup.
 *
 * Storage is flat: values and names are arrays indexed by StatId, and
 * the characters of every name share one buffer. A name lookup scans
 * a tag per counter (the name's first eight bytes and its length),
 * newest first, and compares characters only on a matching tag.
 * Registering a name appends to those arrays and allocates no node of
 * its own, so the dozen names a vCPU registers cost a few array
 * growths, not a tree node and possibly a string each. The name order
 * that all() and forEach() walk is sorted when first asked for after a
 * registration.
 */

#ifndef ELISA_SIM_STATS_HH
#define ELISA_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
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
 * Ids are dense and follow registration order.
 */
class StatSet
{
  public:
    /**
     * Resolve @p name to its StatId, registering it at zero when new.
     * This is the only string-keyed lookup; call it once at
     * construction time, never per event.
     */
    StatId id(std::string_view name);

    /** Increment the interned counter @p sid (hot path). */
    void
    inc(StatId sid, std::uint64_t delta = 1)
    {
        values[sid] += delta;
    }

    /**
     * Increment @p name by @p delta (creating it at 0 if absent).
     * Compatibility/slow-path form: pays a name search per call — keep
     * it off per-access and per-call paths (use id() + inc(StatId)).
     */
    void
    inc(std::string_view name, std::uint64_t delta = 1)
    {
        values[id(name)] += delta;
    }

    /** Read an interned counter. */
    std::uint64_t get(StatId sid) const { return values[sid]; }

    /** Read a counter by name (0, and nothing registered, if absent). */
    std::uint64_t get(std::string_view name) const;

    /** Reset every counter to zero (registrations are kept). */
    void clear();

    /** Number of registered counters. */
    std::size_t size() const { return values.size(); }

    /** Materialize all counters, name-keyed (iteration in tests). */
    std::map<std::string, std::uint64_t> all() const;

    /** Call @p fn(name, value) for every counter, in name order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const StatId sid : nameOrder())
            fn(nameOf(sid), values[sid]);
    }

  private:
    /** Where one counter's name lives, and its search tag. */
    struct Name
    {
        std::uint64_t tag;   ///< tagOf(name)
        std::uint32_t begin; ///< offset of the name in nameChars
        std::uint32_t len;   ///< name length in bytes
    };

    /** Name of counter @p sid (a view into nameChars). */
    std::string_view
    nameOf(StatId sid) const
    {
        return {nameChars.data() + names[sid].begin, names[sid].len};
    }

    /** The first eight bytes of @p name (zero-padded), and its length. */
    static std::uint64_t tagOf(std::string_view name);

    /** The StatId named @p name, or size() when none is. */
    StatId find(std::string_view name) const;

    /** Every StatId in name order (sorted again after a registration). */
    const std::vector<StatId> &nameOrder() const;

    /** Counter values, by StatId. */
    std::vector<std::uint64_t> values;
    /** Counter names, by StatId. */
    std::vector<Name> names;
    /** Every name's characters, concatenated in registration order. */
    std::string nameChars;
    /** StatIds sorted by name; a cache nameOrder() brings up to date. */
    mutable std::vector<StatId> byName;
};

} // namespace elisa::sim

#endif // ELISA_SIM_STATS_HH
