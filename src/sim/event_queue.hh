/**
 * @file
 * Generic event-driven simulation kernel.
 *
 * A binary heap of Event pointers ordered by femtosecond timestamps.
 * McdProcessor does not use it: it clocks its domains itself with a
 * fixed next-edge table (core/mcd_processor.hh). The queue serves
 * stand-alone clock domains (ClockDomain's queue-bound constructor),
 * tests and benchmark probes.
 *
 * Determinism: events that share a timestamp are ordered by (priority,
 * insertion sequence), so a run is a pure function of configuration
 * and seeds.
 */

#ifndef MCDSIM_SIM_EVENT_QUEUE_HH
#define MCDSIM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "common/check.hh"
#include "common/types.hh"

namespace mcd
{

class EventQueue;

/**
 * Base class for all schedulable activity.
 *
 * Events are one-shot: once processed they may be rescheduled by their
 * owner (this is how clock edges repeat). Events are never owned by
 * the queue; the creating component controls their lifetime and must
 * keep them alive while scheduled. A component may let its events die
 * still-scheduled only when the queue will never be stepped again
 * (normal end-of-simulation teardown).
 */
class Event
{
  public:
    /**
     * Relative order among events at the same tick; lower runs first.
     * Domain clock edges use the domain id so same-instant edges fire
     * in a fixed order; samplers run after edges at the same instant.
     */
    static constexpr int defaultPriority = 100;

    explicit Event(int priority = defaultPriority)
        : _priority(priority)
    {}

    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Called by the queue when the event's time arrives. */
    virtual void process() = 0;

    /** Debug name used in panic messages. */
    virtual const char *name() const { return "anonymous-event"; }

    /** True while the event sits in a queue. */
    bool scheduled() const { return _scheduled; }

    /**
     * Mark a scheduled event so the queue drops it instead of
     * processing it. The owner may reschedule afterwards.
     */
    void squash() { _squashed = true; }

  private:
    friend class EventQueue;

    int _priority;
    bool _scheduled = false;
    bool _squashed = false;
};

/**
 * An event queue: a binary heap of Event pointers ordered by (tick,
 * priority, insertion sequence).
 */
class EventQueue
{
  public:
    EventQueue() = default;

    /**
     * Current simulated time: the tick of the last processed event.
     * The reference stays valid for the queue's lifetime, so a clock
     * domain can use it as its time base.
     */
    const Tick &now() const { return _now; }

    /**
     * Schedule @p ev at absolute time @p when (>= now()). Panics if
     * the event is already scheduled or the time is in the past.
     */
    void
    schedule(Event *ev, Tick when)
    {
        MCDSIM_CHECK(ev != nullptr, "scheduling null event");
        MCDSIM_CHECK(!ev->_scheduled, "event '%s' double-scheduled",
                     ev->name());
        MCDSIM_CHECK(when >= _now,
                     "event '%s' scheduled in the past (%llu < %llu)",
                     ev->name(), static_cast<unsigned long long>(when),
                     static_cast<unsigned long long>(_now));

        ev->_scheduled = true;
        ev->_squashed = false;
        heap.push_back(Entry{when, ev->_priority, nextSeq++, ev});
        siftUp(heap.size() - 1);
    }

    /** Process events until the queue empties or now() > @p limit. */
    void runUntil(Tick limit);

    /**
     * Pop exactly one queue entry and process it unless squashed;
     * returns false if the queue is empty. The entry has left the
     * heap before process() runs, so an event may reschedule itself
     * and the queue stays consistent if process() throws.
     */
    bool step();

    /** True when no events remain. */
    bool empty() const { return heap.empty(); }

    /** Number of scheduled (including squashed) events. */
    std::size_t size() const { return heap.size(); }

    /** Total events processed since construction. */
    std::uint64_t processedCount() const { return processed; }

    /** Tick of the earliest pending event; maxTick when empty. */
    Tick nextEventTick() const;

  private:
    struct Entry
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        Event *ev;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (priority != o.priority)
                return priority > o.priority;
            return seq > o.seq;
        }
    };

    void siftUp(std::size_t i);

    /** Place @p moving at hole @p i and sift it down to its slot. */
    void siftDown(std::size_t i, const Entry &moving);

    /** Remove the root entry (swap-with-back + one sift-down). */
    void removeTop();

#if MCDSIM_DCHECK_IS_ON
    /** O(n) heap-property validation; debug builds only — release
     *  builds do not even compile the walk. */
    bool heapOrdered() const;
#endif

    std::vector<Entry> heap;
    Tick _now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t processed = 0;
};

} // namespace mcd

#endif // MCDSIM_SIM_EVENT_QUEUE_HH
