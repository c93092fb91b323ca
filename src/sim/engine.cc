#include "sim/engine.hh"

#include <utility>

#include "base/logging.hh"

namespace elisa::sim
{

RegId
Engine::add(Actor *actor)
{
    panic_if(actor == nullptr, "null actor");
    panic_if(running, "Engine::add during run()");
    const RegId reg = static_cast<RegId>(entries.size());
    entries.push_back(Entry{actor, true});
    ++aliveCount;
    return reg;
}

void
Engine::clear()
{
    panic_if(running, "Engine::clear during run()");
    entries.clear();
    heap.clear();
    events = {};
    aliveCount = 0;
    deliveredEvents = 0;
    // Restart the sampler series: a reused Engine must fire its first
    // sample one period into the new run, not wherever the previous
    // population left nextSample.
    nextSample = samplePeriod;
}

void
Engine::setSampler(SimNs period_ns, std::function<void(SimNs)> fn)
{
    panic_if(running, "Engine::setSampler during run()");
    if (period_ns == 0 || !fn) {
        samplePeriod = 0;
        nextSample = 0;
        sampler = nullptr;
        return;
    }
    samplePeriod = period_ns;
    nextSample = period_ns;
    sampler = std::move(fn);
}

void
Engine::post(SimNs deliver_at, EventFn fn)
{
    panic_if(!inItem,
             "Engine::post called outside a running step of this engine");
    panic_if(!fn, "null event");
    panic_if(deliver_at <= itemTime,
             "post must deliver strictly after the posting item: "
             "deliver_at=%llu <= item_time=%llu",
             (unsigned long long)deliver_at,
             (unsigned long long)itemTime);
    events.push(Event{deliver_at, postSeq++, std::move(fn)});
}

// ---- actor heap: min by (clock, registration id) -------------------

void
Engine::siftDown(std::size_t pos)
{
    const std::size_t size = heap.size();
    const Slot moving = heap[pos];
    for (std::size_t child; (child = 2 * pos + 1) < size; pos = child) {
        if (child + 1 < size)
            child += heap[child + 1].before(heap[child]);
        if (!heap[child].before(moving))
            break;
        heap[pos] = heap[child];
    }
    heap[pos] = moving;
}

void
Engine::heapRemoveTop()
{
    heap.front() = heap.back();
    heap.pop_back();
    if (!heap.empty())
        siftDown(0);
}

SimNs
Engine::nextActorTime()
{
    while (!heap.empty()) {
        Slot &top = heap.front();
        const SimNs now = entries[top.reg].actor->actorNow();
        if (now == top.key)
            return now;
        // Clocks are monotonic, so a stale key is only ever too low:
        // re-keying the top before use preserves min order.
        panic_if(now < top.key, "actor clock ran backwards");
        top.key = now;
        siftDown(0);
    }
    return noWork;
}

std::uint64_t
Engine::run(SimNs horizon_ns)
{
    panic_if(running, "Engine::run is not reentrant");
    running = true;

    // Rebuild the heap: clocks may have advanced between runs, and
    // finished actors must not resurface.
    heap.clear();
    for (RegId reg = 0; reg < entries.size(); ++reg) {
        const Entry &e = entries[reg];
        if (e.alive)
            heap.push_back(Slot{e.actor->actorNow(), reg});
    }
    for (std::size_t pos = heap.size() / 2; pos-- > 0;)
        siftDown(pos);

    std::uint64_t steps = 0;
    for (;;) {
        const SimNs actorAt = nextActorTime();
        const SimNs eventAt = events.empty() ? noWork : events.top().at;
        // Events deliver before steps at the same simulated time: an
        // arrival at t is observable by the actor scheduled at t.
        const bool eventFirst = eventAt <= actorAt;
        const SimNs t = eventFirst ? eventAt : actorAt;
        if (t >= horizon_ns)
            break;

        // All work below t is done, so every boundary up to t sees a
        // machine quiescent below it.
        while (sampler && nextSample <= t) {
            sampler(nextSample);
            nextSample += samplePeriod;
        }

        inItem = true;
        itemTime = t;
        if (eventFirst) {
            // priority_queue::top() is const; moving out right before
            // pop() is safe (the queue never reads the moved-from fn).
            Event ev = std::move(const_cast<Event &>(events.top()));
            events.pop();
            ev.fn(ev.at);
            ++deliveredEvents;
        } else {
            Entry &top = entries[heap.front().reg];
            const bool more = top.actor->step();
            const SimNs now = top.actor->actorNow();
            panic_if(now < t, "actor ran backwards in time");
            ++steps;
            if (more) {
                heap.front().key = now;
                siftDown(0);
            } else {
                top.alive = false;
                --aliveCount;
                heapRemoveTop();
            }
        }
        inItem = false;
    }

    running = false;
    return steps;
}

} // namespace elisa::sim
