/**
 * @file
 * Serial multi-actor discrete-event engine.
 *
 * Each actor owns a SimClock and performs one bounded unit of work per
 * step() call (e.g., one KVS operation, one packet). The engine always
 * runs the earliest pending item: the actor with the smallest
 * (clock, registration-id) key, or a posted event. Interactions through
 * SimLock / SimResource therefore observe one causally consistent
 * simulated timeline — nobody can retroactively occupy a resource in
 * another actor's past — and equal-clock ties always resolve in
 * registration order regardless of which actors finished earlier.
 *
 * Work that lands later than its sender's present (a network hop to
 * another machine, a response) travels as a posted event: fn runs at
 * its delivery time, before any actor step at that time. Events with
 * equal delivery times run in post order.
 */

#ifndef ELISA_SIM_ENGINE_HH
#define ELISA_SIM_ENGINE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "base/types.hh"

namespace elisa::sim
{

/** Registration id of an actor within an Engine (add() order). */
using RegId = std::uint32_t;

/**
 * Interface of an entity driven by the Engine.
 */
class Actor
{
  public:
    virtual ~Actor() = default;

    /** Current local simulated time. */
    virtual SimNs actorNow() const = 0;

    /**
     * Perform one unit of work, advancing the local clock.
     *
     * @return false when the actor has no more work (it is then
     *         removed from scheduling for the rest of the run).
     */
    virtual bool step() = 0;
};

/**
 * The scheduler. Actors are registered (not owned), then run() drives
 * them and any posted events in simulated-time order until everyone
 * finishes or the horizon is reached.
 */
class Engine
{
  public:
    /** Delivered event: fn(deliver_time). */
    using EventFn = std::function<void(SimNs)>;

    Engine() = default;
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Register an actor; the caller keeps ownership.
     * @return the actor's registration id (the scheduling tie-break).
     */
    RegId add(Actor *actor);

    /**
     * Drop all registered actors and undelivered events, reset the
     * delivery count, and rewind the sampler bookkeeping to the start
     * of its series (the next boundary is one full period after time
     * zero again), so a reused Engine never back-dates or skips
     * samples.
     */
    void clear();

    /**
     * Schedule @p fn to run at simulated time @p deliver_at, after all
     * work strictly before @p deliver_at and before any actor step at
     * it. Events with equal delivery times run in post order.
     *
     * Only callable from within a step() or a delivered event, with
     * @p deliver_at strictly after that item's scheduled time; an
     * earlier delivery could land in some actor's past and panics.
     */
    void post(SimNs deliver_at, EventFn fn);

    /**
     * Run until every actor finished and every event was delivered, or
     * all remaining work (actor steps and pending events) lies at or
     * past @p horizon_ns. Actors whose clock reaches the horizon stop
     * being stepped but are not asked to finish; undelivered events at
     * or past the horizon stay queued for a later run().
     *
     * @return total number of step() calls issued by this run.
     */
    std::uint64_t run(SimNs horizon_ns = ~SimNs{0});

    /** Number of actors still runnable after the last run(). */
    std::size_t runnable() const { return aliveCount; }

    /** Events delivered since construction or the last clear(). */
    std::uint64_t delivered() const { return deliveredEvents; }

    /**
     * Install a periodic simulated-time sampler: once every pending
     * unit of work lies at or past the next multiple of @p period_ns
     * (and at least one such unit below the horizon remains), run()
     * invokes @p fn with that boundary before executing any of it.
     * The callback fires once per boundary in strictly increasing
     * order (boundaries the whole population skipped over are each
     * still fired — a time series never has holes). Every actor and
     * event is quiescent below the boundary while @p fn runs, so no
     * work can later happen at a simulated time before a sample that
     * already fired. A null @p fn (or period 0) uninstalls. Pair it
     * with MetricsCsvSampler for metrics snapshots.
     */
    void setSampler(SimNs period_ns, std::function<void(SimNs)> fn);

  private:
    /** "No pending work" sentinel time. */
    static constexpr SimNs noWork = ~SimNs{0};

    /** One posted event awaiting delivery. */
    struct Event
    {
        SimNs at = 0;          ///< delivery time
        std::uint64_t seq = 0; ///< post order (equal-time tie-break)
        EventFn fn;
    };

    struct EventAfter
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return a.at != b.at ? a.at > b.at : a.seq > b.seq;
        }
    };

    /** Registered-actor bookkeeping, indexed by RegId. */
    struct Entry
    {
        Actor *actor = nullptr;
        bool alive = false;
    };

    /** Heap element: an actor and its cached clock. */
    struct Slot
    {
        SimNs key = 0; ///< cached actorNow() (<= the live clock)
        RegId reg = 0;

        /** (key, reg) order without branches: in lockstep runs most
         *  keys tie and the outcome is a coin flip. */
        bool
        before(const Slot &o) const
        {
            return (key < o.key) | ((key == o.key) & (reg < o.reg));
        }
    };

    void siftDown(std::size_t pos);
    void heapRemoveTop();

    /**
     * Clock of the earliest runnable actor, or noWork. Re-keys a stale
     * heap top first: an event callback may have advanced an actor.
     */
    SimNs nextActorTime();

    std::vector<Entry> entries;
    std::vector<Slot> heap; ///< min-heap of runnable actors
    std::priority_queue<Event, std::vector<Event>, EventAfter> events;
    std::size_t aliveCount = 0;
    std::uint64_t deliveredEvents = 0;
    std::uint64_t postSeq = 0;

    SimNs samplePeriod = 0;
    SimNs nextSample = 0;
    std::function<void(SimNs)> sampler;

    bool running = false;
    bool inItem = false; ///< a step() or event callback is executing
    SimNs itemTime = 0;  ///< scheduled time of that item
};

} // namespace elisa::sim

#endif // ELISA_SIM_ENGINE_HH
