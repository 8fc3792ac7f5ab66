/**
 * @file
 * Register-dependence completion tracking.
 *
 * The trace format encodes dependences as distances to producing
 * instructions, so operand readiness reduces to "when did producer
 * seq - dist complete, and in which domain?". A fixed-size ring keyed
 * by sequence number answers that in O(1); entries older than the
 * ring (far beyond the maximum dependence distance and ROB depth) are
 * treated as completed at time zero.
 *
 * The table also keeps an epoch that advances on every write. A
 * reader that derived a wake-up time from readyTime() answers can
 * reuse it for as long as the epoch is unchanged: no other call alters
 * what readyTime() returns.
 */

#ifndef MCDSIM_ARCH_COMPLETION_TABLE_HH
#define MCDSIM_ARCH_COMPLETION_TABLE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.hh"
#include "common/types.hh"
#include "mcd/clock_domain.hh"

namespace mcd
{

/** Ring of producer completion records. */
class CompletionTable
{
  public:
    explicit CompletionTable(std::size_t capacity = 1024)
        : ring(capacity)
    {
        MCDSIM_CHECK(capacity != 0 && (capacity & (capacity - 1)) == 0,
                     "completion table capacity must be a power of 2");
    }

    /**
     * Capacity for a ROB of @p rob_size entries: 1024, or 2 * rob_size
     * rounded up to a power of 2 if that is more. Then any distance
     * whose slot can be reused while its consumer waits (at least
     * capacity - rob_size) is at least rob_size, so it names a
     * producer that retired before the consumer dispatched.
     */
    static std::size_t
    capacityFor(std::size_t rob_size)
    {
        return std::max<std::size_t>(1024, std::bit_ceil(2 * rob_size));
    }

    /** Register instruction @p seq as in flight (not yet complete). */
    void
    beginInst(InstSeqNum seq, DomainId domain)
    {
        Entry &e = ring[seq & (ring.size() - 1)];
        e.seq = seq;
        e.completeTime = maxTick;
        e.domain = domain;
        ++_epoch;
    }

    /** Record completion of @p seq at @p when. */
    void
    complete(InstSeqNum seq, Tick when)
    {
        Entry &e = ring[seq & (ring.size() - 1)];
        MCDSIM_CHECK(e.seq == seq, "completion of evicted seq %llu",
                     static_cast<unsigned long long>(seq));
        e.completeTime = when;
        ++_epoch;
    }

    /**
     * Time the result of @p seq becomes usable by a consumer in
     * @p consumer domain, given @p cross_penalty extra ticks for
     * cross-domain forwarding; maxTick while the producer is pending.
     * Sequence numbers that fell off the ring are long retired.
     */
    Tick
    readyTime(InstSeqNum seq, DomainId consumer, Tick cross_penalty) const
    {
        const Entry &e = ring[seq & (ring.size() - 1)];
        if (e.seq != seq)
            return 0; // ancient producer: long since architected
        if (e.completeTime == maxTick)
            return maxTick;
        return e.domain == consumer ? e.completeTime
                                    : e.completeTime + cross_penalty;
    }

    /** Number of beginInst() and complete() calls so far. */
    std::uint64_t epoch() const { return _epoch; }

  private:
    struct Entry
    {
        InstSeqNum seq = ~InstSeqNum(0);
        Tick completeTime = 0;
        DomainId domain = DomainId::FrontEnd;
    };

    std::vector<Entry> ring;
    std::uint64_t _epoch = 0;
};

} // namespace mcd

#endif // MCDSIM_ARCH_COMPLETION_TABLE_HH
