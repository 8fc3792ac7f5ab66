/**
 * @file
 * Event-driven simulation kernel.
 *
 * mcdsim models a GALS (globally asynchronous, locally synchronous)
 * processor: each clock domain schedules its own clock edges as events
 * on a single global queue ordered by femtosecond timestamps. Because
 * a domain computes its *next* edge from its *current* period, DVFS
 * frequency changes take effect cleanly edge by edge with no special
 * casing.
 *
 * Determinism: events that share a timestamp are ordered by (priority,
 * insertion sequence), so a run is a pure function of configuration
 * and seeds.
 */

#ifndef MCDSIM_SIM_EVENT_QUEUE_HH
#define MCDSIM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hh"
#include "common/types.hh"

namespace mcd
{

namespace obs
{
class StatsRegistry;
} // namespace obs

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

    /** Time this event is (or was last) scheduled for. */
    Tick when() const { return _when; }

    int priority() const { return _priority; }

    /**
     * Mark a scheduled event so the queue drops it instead of
     * processing it. The owner may reschedule afterwards.
     */
    void squash() { _squashed = true; }

  private:
    friend class EventQueue;

    Tick _when = 0;
    std::uint64_t _seq = 0;
    int _priority;
    bool _scheduled = false;
    bool _squashed = false;
};

/**
 * Convenience event wrapping a callable. Useful for tests and
 * experiment glue; hot paths use dedicated Event subclasses.
 */
template <typename F>
class LambdaEvent : public Event
{
  public:
    explicit LambdaEvent(F f, int priority = Event::defaultPriority)
        : Event(priority), func(std::move(f))
    {}

    void process() override { func(); }
    const char *name() const override { return "lambda-event"; }

  private:
    F func;
};

/**
 * The global event queue: a binary heap of Event pointers ordered by
 * (tick, priority, insertion sequence).
 */
class EventQueue
{
  public:
    EventQueue() = default;

    /** Current simulated time: the tick of the last processed event. */
    Tick now() const { return _now; }

    /**
     * Schedule @p ev at absolute time @p when (>= now()). Panics if
     * the event is already scheduled or the time is in the past.
     *
     * Hot path: when the event being dispatched reschedules itself
     * from inside process() — the clock-edge and sampler pattern that
     * dominates every run — the queue fuses the implicit pop with the
     * new insertion by overwriting the heap root in place and sifting
     * down once, instead of a pop-sift followed by a push-sift. The
     * fusion is purely structural: (when, priority, seq) keys are
     * assigned exactly as on the slow path, so dispatch order — and
     * therefore simulation output — is identical.
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

        ev->_when = when;
        ev->_seq = nextSeq++;
        ev->_scheduled = true;
        ev->_squashed = false;
        const Entry entry{when, ev->_priority, ev->_seq, ev};

        if (ev == dispatching && topPending) {
            // Fused pop+reschedule: the dispatched entry still sits at
            // the root (it is <= every other key, since later
            // insertions at the same tick get larger sequence
            // numbers), so the new key can take its place and settle
            // with a single sift-down.
            topPending = false;
            siftDown(0, entry);
#if MCDSIM_DCHECK_IS_ON
            MCDSIM_DCHECK(heapOrdered(), "heap order after fused reschedule");
#endif
            return;
        }
        push(entry);
    }

    /** Pre-size the heap so steady-state runs never reallocate. */
    void reserve(std::size_t capacity) { heap.reserve(capacity); }

    /** Process events until the queue empties or now() > @p limit. */
    void runUntil(Tick limit);

    /**
     * Consume exactly one queue entry (processing it unless squashed);
     * returns false if the queue is empty.
     */
    bool step();

    /**
     * True when no events remain. During a process() callback the
     * entry being dispatched is still counted by empty()/size() until
     * it is consumed or fused (callers only observe the queue between
     * steps, where both are exact).
     */
    bool empty() const { return heap.empty(); }

    /** Number of scheduled (including squashed) events. */
    std::size_t size() const { return heap.size(); }

    /** Total events processed since construction. */
    std::uint64_t processedCount() const { return processed; }

    /** Tick of the earliest pending event; maxTick when empty. */
    Tick nextEventTick() const;

    /**
     * Register kernel stats under @p prefix ("<prefix>.processed",
     * "<prefix>.pending") as dump-time callbacks: zero cost on the
     * dispatch path. The queue must outlive the registry's last dump.
     */
    void registerStats(obs::StatsRegistry &reg,
                       const std::string &prefix) const;

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

    /** Slow path of schedule(): insert @p entry with a sift-up. */
    void push(const Entry &entry);

    void siftUp(std::size_t i);

    /** Place @p moving at hole @p i and sift it down to its slot. */
    void siftDown(std::size_t i, const Entry &moving);

    /** Remove the root entry (swap-with-back + one sift-down). */
    void removeTop();

    /** Complete a deferred root removal, if one is pending. */
    void
    finishPendingRemoval()
    {
        if (topPending) {
            topPending = false;
            removeTop();
        }
    }

#if MCDSIM_DCHECK_IS_ON
    /** O(n) heap-property validation; debug builds only — release
     *  builds do not even compile the walk. */
    bool heapOrdered() const;
#endif

    std::vector<Entry> heap;
    Tick _now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t processed = 0;

    /** Event whose process() is on the stack, else nullptr. */
    Event *dispatching = nullptr;

    /**
     * True while the dispatched event's entry still occupies the heap
     * root: its removal is deferred so a self-reschedule can reuse
     * the slot (one sift-down instead of pop-sift + push-sift).
     */
    bool topPending = false;
};

} // namespace mcd

#endif // MCDSIM_SIM_EVENT_QUEUE_HH
