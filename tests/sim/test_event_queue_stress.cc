/**
 * @file
 * Randomized stress test: the binary-heap event queue must agree with
 * a simple sorted-list reference model over long random schedules of
 * schedule / squash / reschedule operations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "sim/event_queue.hh"

namespace mcd
{
namespace
{

/** Event that records (id, time) into a shared log. */
class StressEvent : public Event
{
  public:
    StressEvent(std::vector<std::pair<int, Tick>> &log_ref, int id,
                int priority)
        : Event(priority), log(log_ref), _id(id)
    {}

    void
    process() override
    {
        log.push_back({_id, 0});
    }

    int id() const { return _id; }

  private:
    std::vector<std::pair<int, Tick>> &log;
    int _id;
};

struct RefEntry
{
    Tick when;
    int priority;
    std::uint64_t seq;
    int id;
    bool squashed;
};

TEST(EventQueueStress, MatchesReferenceModelOverRandomOps)
{
    Rng rng(2024);
    EventQueue eq;
    std::vector<std::pair<int, Tick>> log;

    std::vector<std::unique_ptr<StressEvent>> events;
    std::vector<RefEntry> reference;
    std::uint64_t ref_seq = 0;

    const int rounds = 50;
    int next_id = 0;
    for (int round = 0; round < rounds; ++round) {
        // Schedule a random batch in the future.
        const int batch = 1 + static_cast<int>(rng.below(20));
        for (int i = 0; i < batch; ++i) {
            const Tick when = eq.now() + 1 + rng.below(1000);
            const int prio = static_cast<int>(rng.below(4));
            events.push_back(std::make_unique<StressEvent>(
                log, next_id, prio));
            eq.schedule(events.back().get(), when);
            reference.push_back(
                {when, prio, ref_seq++, next_id, false});
            ++next_id;
        }

        // Squash a few pending events.
        for (auto &ref : reference) {
            if (!ref.squashed && rng.chance(0.05)) {
                // Find the matching live event and squash it.
                for (auto &ev : events) {
                    if (ev->id() == ref.id && ev->scheduled()) {
                        ev->squash();
                        ref.squashed = true;
                        break;
                    }
                }
            }
        }

        // Run to a random horizon and compare orders.
        const Tick horizon = eq.now() + 1 + rng.below(1500);
        log.clear();
        eq.runUntil(horizon);

        std::vector<int> expected;
        std::vector<RefEntry> remaining;
        std::stable_sort(reference.begin(), reference.end(),
                         [](const RefEntry &a, const RefEntry &b) {
                             if (a.when != b.when)
                                 return a.when < b.when;
                             if (a.priority != b.priority)
                                 return a.priority < b.priority;
                             return a.seq < b.seq;
                         });
        for (const auto &ref : reference) {
            if (ref.when <= horizon) {
                if (!ref.squashed)
                    expected.push_back(ref.id);
            } else {
                remaining.push_back(ref);
            }
        }
        reference = std::move(remaining);

        ASSERT_EQ(log.size(), expected.size()) << "round " << round;
        for (std::size_t i = 0; i < expected.size(); ++i)
            ASSERT_EQ(log[i].first, expected[i]) << "round " << round;
    }
}

/** Self-rescheduling ticker with a pre-planned interval sequence. */
class ChainEvent : public Event
{
  public:
    ChainEvent(EventQueue &queue, std::vector<int> &log_ref, int id,
               int priority, std::vector<Tick> plan)
        : Event(priority), q(queue), log(log_ref), _id(id),
          intervals(std::move(plan))
    {}

    void
    process() override
    {
        log.push_back(_id);
        if (next < intervals.size())
            q.schedule(this, q.now() + intervals[next++]);
    }

    const char *name() const override { return "chain-event"; }

  private:
    EventQueue &q;
    std::vector<int> &log;
    int _id;
    std::vector<Tick> intervals;
    std::size_t next = 0;
};

TEST(EventQueueStress, SelfReschedulingChainsMatchReferenceModel)
{
    // Every event reschedules itself from inside process(). Unique
    // per-event priorities make the expected order computable without
    // modelling insertion sequence numbers: merge all chains by
    // (tick, priority).
    Rng rng(4057);
    constexpr int chains = 24;
    constexpr int edges = 300;

    EventQueue eq;
    std::vector<int> log;
    std::vector<std::unique_ptr<ChainEvent>> events;

    struct RefEdge
    {
        Tick when;
        int priority;
        int id;
    };
    std::vector<RefEdge> expected;

    for (int c = 0; c < chains; ++c) {
        const Tick start = 1 + rng.below(10);
        std::vector<Tick> plan;
        Tick when = start;
        expected.push_back({when, c, c});
        for (int e = 0; e < edges; ++e) {
            const Tick dt = 1 + rng.below(9); // small: frequent ties
            plan.push_back(dt);
            when += dt;
            expected.push_back({when, c, c});
        }
        events.push_back(std::make_unique<ChainEvent>(
            eq, log, c, /*priority=*/c, std::move(plan)));
        eq.schedule(events.back().get(), start);
    }

    std::sort(expected.begin(), expected.end(),
              [](const RefEdge &a, const RefEdge &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  return a.priority < b.priority;
              });

    eq.runUntil(maxTick);
    ASSERT_EQ(log.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(log[i], expected[i].id) << "dispatch " << i;
    EXPECT_EQ(eq.processedCount(), expected.size());
    EXPECT_TRUE(eq.empty());
}

} // namespace
} // namespace mcd
