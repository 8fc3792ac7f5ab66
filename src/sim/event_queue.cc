#include "sim/event_queue.hh"

#include "common/check.hh"
#include "obs/debug_flags.hh"

namespace mcd
{

Event::~Event() = default;

void
EventQueue::removeTop()
{
    const Entry last = heap.back();
    heap.pop_back();
    if (!heap.empty())
        siftDown(0, last);
}

bool
EventQueue::step()
{
    if (heap.empty())
        return false;

#if MCDSIM_DCHECK_IS_ON
    MCDSIM_DCHECK(heapOrdered(), "event queue heap order violated");
#endif
    const Entry top = heap.front();
    // Ordering monotonicity: the documented determinism guarantee
    // (pure function of config and seed) rests on time never flowing
    // backwards through the dispatch loop.
    MCDSIM_INVARIANT(top.when >= _now,
                     "event '%s' dispatched out of order (%llu < %llu)",
                     top.ev->name(),
                     static_cast<unsigned long long>(top.when),
                     static_cast<unsigned long long>(_now));
    Event *ev = top.ev;
    _now = top.when;
    ev->_scheduled = false;
    removeTop();
    if (ev->_squashed) {
        // Consume the squashed entry without processing; the caller's
        // time-limit check is re-evaluated before the next entry.
        ev->_squashed = false;
        return true;
    }
    ++processed;
    MCDSIM_TRACE(obs::DebugFlag::EventQueue, "t=%llu dispatch %s prio=%d",
                 static_cast<unsigned long long>(_now), ev->name(),
                 top.priority);
    ev->process();
    return true;
}

void
EventQueue::runUntil(Tick limit)
{
    while (!heap.empty() && heap.front().when <= limit) {
        if (!step())
            break;
    }
    if (_now < limit)
        _now = limit;
}

Tick
EventQueue::nextEventTick() const
{
    return heap.empty() ? maxTick : heap.front().when;
}

#if MCDSIM_DCHECK_IS_ON
bool
EventQueue::heapOrdered() const
{
    for (std::size_t i = 1; i < heap.size(); ++i) {
        if (heap[(i - 1) / 2] > heap[i])
            return false;
    }
    return true;
}
#endif

void
EventQueue::siftUp(std::size_t i)
{
    const Entry moving = heap[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!(heap[parent] > moving))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = moving;
}

void
EventQueue::siftDown(std::size_t i, const Entry &moving)
{
    // Hole method: children move up into the hole until @p moving
    // fits, then it is written once. Keys are unique (the sequence
    // number breaks every tie), so the layout matches a swap-based
    // sift exactly.
    const std::size_t n = heap.size();
    while (true) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n)
            child += heap[child] > heap[child + 1];
        if (!(moving > heap[child]))
            break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = moving;
}

} // namespace mcd
