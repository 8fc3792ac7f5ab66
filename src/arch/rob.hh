/**
 * @file
 * Reorder buffer (Table 1: 80 entries, retire width 11).
 *
 * The ROB owns the DynInst storage for the whole window: allocation
 * returns a pointer that stays valid until the instruction retires,
 * so the issue queues and clusters can hold raw pointers safely.
 */

#ifndef MCDSIM_ARCH_ROB_HH
#define MCDSIM_ARCH_ROB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/dyn_inst.hh"
#include "common/check.hh"

namespace mcd
{

namespace obs
{
class StatsRegistry;
} // namespace obs

/** Circular reorder buffer that owns in-flight instruction records. */
class Rob
{
  public:
    explicit Rob(std::uint32_t capacity)
        : slots(capacity)
    {
        MCDSIM_CHECK(capacity != 0, "zero-capacity ROB");
    }

    bool full() const { return count == slots.size(); }
    bool empty() const { return count == 0; }
    std::size_t occupancy() const { return count; }
    std::size_t capacity() const { return slots.size(); }

    /** Allocate the tail slot; caller must have checked full(). */
    DynInst *
    allocate()
    {
        MCDSIM_CHECK(!full(), "ROB overflow");
        DynInst *inst = &slots[tail];
        *inst = DynInst{};
        tail = tail + 1 == slots.size() ? 0 : tail + 1;
        ++count;
        checkInvariant();
        return inst;
    }

    /** Oldest in-flight instruction (caller checks empty()). */
    DynInst *
    head()
    {
        MCDSIM_CHECK(!empty(), "ROB head of empty buffer");
        return &slots[headIdx];
    }

    const DynInst *
    head() const
    {
        MCDSIM_CHECK(!empty(), "ROB head of empty buffer");
        return &slots[headIdx];
    }

    /**
     * The instruction @p dist slots older than the in-flight @p inst.
     * The caller knows that one is still in flight too.
     */
    DynInst *
    olderBy(const DynInst *inst, std::size_t dist)
    {
        const auto at = static_cast<std::size_t>(inst - slots.data());
        MCDSIM_DCHECK(at < slots.size() && dist < count,
                      "ROB lookup outside the window");
        return &slots[at >= dist ? at - dist : at + slots.size() - dist];
    }

    /** Retire the head; its storage is recycled. */
    void
    retireHead()
    {
        MCDSIM_CHECK(!empty(), "ROB retire of empty buffer");
        headIdx = headIdx + 1 == slots.size() ? 0 : headIdx + 1;
        --count;
        ++retired;
        checkInvariant();
    }

    /** Instructions retired since construction. */
    std::uint64_t retiredCount() const { return retired; }

    /**
     * Register ROB stats under @p prefix: "<prefix>.capacity",
     * ".occupancy", ".retired". Dump-time callbacks only (defined in
     * arch/registered_stats.cc).
     */
    void registerStats(obs::StatsRegistry &reg,
                       const std::string &prefix) const;

  private:
    /** Ring consistency: occupancy bound and head/tail agreement. */
    void
    checkInvariant() const
    {
        MCDSIM_INVARIANT(count <= slots.size(),
                         "ROB occupancy %zu exceeds capacity %zu", count,
                         slots.size());
        MCDSIM_INVARIANT(headIdx < slots.size() && tail < slots.size(),
                         "ROB indices out of range");
        // Both bounds hold, so headIdx + count < 2 * size: one
        // conditional subtraction is the modulo, and tail is its own.
        const std::size_t end = headIdx + count;
        MCDSIM_INVARIANT((end < slots.size() ? end : end - slots.size()) ==
                             tail,
                         "ROB head/tail disagree with occupancy");
    }

    std::vector<DynInst> slots;
    std::size_t headIdx = 0;
    std::size_t tail = 0;
    std::size_t count = 0;
    std::uint64_t retired = 0;
};

} // namespace mcd

#endif // MCDSIM_ARCH_ROB_HH
