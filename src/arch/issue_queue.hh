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

    /** Remove a previously selected entry, keeping the others in
     *  order. */
    void
    erase(DynInst *inst)
    {
        std::uint32_t i = 0;
        while (i < count && slot(i) != inst)
            ++i;
        if (i == count)
            panic("%s: erasing absent instruction", _name.c_str());
        eraseAt(&i, 1);
    }

    /**
     * Remove the entries at scan positions @p pos[0] < ... <
     * pos[n - 1] (0 = oldest) in one pass, keeping the others in
     * order. The shorter side of the ring closes the gaps, so removing
     * the oldest entries moves nothing.
     */
    void
    eraseAt(const std::uint32_t *pos, unsigned n)
    {
        if (n == 0)
            return;
        MCDSIM_DCHECK(pos[n - 1] < count, "%s: erasing past the tail",
                      _name.c_str());
        if (pos[n - 1] < count - pos[0]) {
            // Shift the older survivors up; the head moves past the gap.
            std::uint32_t w = pos[n - 1];
            unsigned k = n;
            for (std::uint32_t r = pos[n - 1] + 1; r-- > 0;) {
                if (k > 0 && r == pos[k - 1])
                    --k;
                else
                    slot(w--) = slot(r);
            }
            head += n;
            if (head >= cap)
                head -= cap;
        } else {
            // Shift the younger survivors down.
            std::uint32_t w = pos[0];
            unsigned k = 0;
            for (std::uint32_t r = pos[0]; r < count; ++r) {
                if (k < n && r == pos[k])
                    ++k;
                else
                    slot(w++) = slot(r);
            }
        }
        count -= n;
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
