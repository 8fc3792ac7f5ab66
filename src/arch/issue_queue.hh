/**
 * @file
 * Combined issue/interface queue (paper Section 2).
 *
 * In the Semeraro MCD design the issue queues double as the
 * synchronization interface queues between the front end and the
 * execution clusters, and their occupancy is exactly the signal the
 * DVFS controllers monitor. Entries become selectable only after
 * their cross-domain visibility time (write time plus the
 * synchronization window) has passed.
 *
 * Storage is a fixed ring of capacity() slots holding the entries
 * oldest first, so inserts and scans never allocate.
 */

#ifndef MCDSIM_ARCH_ISSUE_QUEUE_HH
#define MCDSIM_ARCH_ISSUE_QUEUE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/dyn_inst.hh"
#include "common/check.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace mcd
{

namespace obs
{
class StatsRegistry;
} // namespace obs

/** Finite instruction queue with visibility-gated oldest-first scan. */
class IssueQueue
{
  public:
    IssueQueue(std::string queue_name, std::uint32_t capacity)
        : _name(std::move(queue_name)), cap(capacity), slots(capacity)
    {
        MCDSIM_CHECK(capacity != 0, "zero-capacity issue queue");
    }

    bool full() const { return count >= cap; }
    bool empty() const { return count == 0; }
    std::size_t occupancy() const { return count; }
    std::uint32_t capacity() const { return cap; }
    const std::string &name() const { return _name; }

    /** Insert at the tail; caller must have checked full(). */
    void
    insert(DynInst *inst)
    {
        MCDSIM_CHECK(!full(), "%s overflow", _name.c_str());
        slot(count) = inst;
        ++count;
        MCDSIM_INVARIANT(count <= cap, "%s occupancy %u exceeds capacity %u",
                         _name.c_str(), count, cap);
        if (count > _maxOccupancy)
            _maxOccupancy = count;
    }

    /**
     * Oldest-first scan of every entry, visible or not: invoke @p fn
     * on each until it returns false (stop) or the queue is exhausted.
     * @p fn may not mutate the queue; collect choices and call erase()
     * after.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::uint32_t i = 0; i < count; ++i) {
            if (!fn(slot(i)))
                return;
        }
    }

    /** As forEach(), skipping entries not yet visible at @p now. */
    template <typename Fn>
    void
    forEachVisible(Tick now, Fn &&fn) const
    {
        forEach([&](DynInst *inst) {
            return inst->queueVisibleTime > now || fn(inst);
        });
    }

    /**
     * Remove a previously selected entry, keeping the others in
     * order. The shorter side of the ring closes the gap, so removing
     * the oldest entry is O(1).
     */
    void
    erase(DynInst *inst)
    {
        std::uint32_t i = 0;
        while (i < count && slot(i) != inst)
            ++i;
        if (i == count)
            panic("%s: erasing absent instruction", _name.c_str());
        if (i < count / 2) {
            for (; i > 0; --i)
                slot(i) = slot(i - 1);
            head = head + 1 == cap ? 0 : head + 1;
        } else {
            for (; i + 1 < count; ++i)
                slot(i) = slot(i + 1);
        }
        --count;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

    /** High-water mark, for the evaluation tables. */
    std::size_t maxOccupancy() const { return _maxOccupancy; }

    /**
     * Register queue stats under @p prefix: "<prefix>.capacity",
     * ".occupancy", ".max_occupancy". Dump-time callbacks only
     * (defined in arch/registered_stats.cc).
     */
    void registerStats(obs::StatsRegistry &reg,
                       const std::string &prefix) const;

  private:
    /** The @p i-th oldest entry's slot, for i < capacity(). */
    DynInst *&
    slot(std::uint32_t i)
    {
        const std::uint32_t at = head + i;
        return slots[at < cap ? at : at - cap];
    }

    DynInst *
    slot(std::uint32_t i) const
    {
        const std::uint32_t at = head + i;
        return slots[at < cap ? at : at - cap];
    }

    std::string _name;
    std::uint32_t cap;
    std::vector<DynInst *> slots;
    std::uint32_t head = 0;  ///< slot of the oldest entry
    std::uint32_t count = 0; ///< live entries
    std::uint32_t _maxOccupancy = 0;
};

} // namespace mcd

#endif // MCDSIM_ARCH_ISSUE_QUEUE_HH
