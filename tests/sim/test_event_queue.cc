/** @file Tests for the event-driven simulation kernel. */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/check.hh"
#include "common/random.hh"
#include "sim/event_queue.hh"

namespace mcd
{
namespace
{

/** Event that appends its tag to a shared log when processed. */
class LogEvent : public Event
{
  public:
    LogEvent(std::vector<int> &log_ref, int tag,
             int priority = Event::defaultPriority)
        : Event(priority), log(log_ref), _tag(tag)
    {}

    void process() override { log.push_back(_tag); }
    const char *name() const override { return "log-event"; }

  private:
    std::vector<int> &log;
    int _tag;
};

/** Event whose process() fails a contract check on command. */
class ThrowingEvent : public Event
{
  public:
    ThrowingEvent(std::vector<int> &log_ref, int tag)
        : log(log_ref), _tag(tag)
    {}

    void
    process() override
    {
        if (armed) {
            armed = false;
            MCDSIM_CHECK(false, "injected process() failure");
        }
        log.push_back(_tag);
    }
    const char *name() const override { return "throwing-event"; }

    bool armed = true;

  private:
    std::vector<int> &log;
    int _tag;
};

TEST(EventQueue, SurvivesProcessThrowMidDispatch)
{
    // If process() throws, the event must already be off the heap:
    // a stale entry would corrupt every later sift, and the queue
    // would either re-dispatch the dead event or violate heap order.
    ScopedCheckThrower guard;
    EventQueue eq;
    std::vector<int> log;
    ThrowingEvent bad(log, 99);
    LogEvent a(log, 1), b(log, 2), c(log, 3);
    eq.schedule(&a, 100);
    eq.schedule(&bad, 200);
    eq.schedule(&b, 300);
    eq.schedule(&c, 400);

    EXPECT_TRUE(eq.step()); // a at t=100
    EXPECT_THROW(eq.step(), CheckFailure);

    // The failed event was consumed, time stands at its tick, and the
    // queue keeps dispatching the survivors in order.
    EXPECT_EQ(eq.now(), 200u);
    eq.runUntil(1000);
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ThrownEventCanBeRescheduled)
{
    ScopedCheckThrower guard;
    EventQueue eq;
    std::vector<int> log;
    ThrowingEvent bad(log, 7);
    eq.schedule(&bad, 10);
    EXPECT_THROW(eq.step(), CheckFailure);
    // The thrown event left the queue: the same event object is
    // schedulable again and processes normally (disarmed).
    eq.schedule(&bad, 20);
    eq.runUntil(100);
    EXPECT_EQ(log, (std::vector<int>{7}));
    EXPECT_EQ(eq.processedCount(), 2u);
}

TEST(EventQueue, ThrowAfterReschedulingOthersKeepsThem)
{
    // process() may have scheduled follow-up work before throwing;
    // that work must survive the unwind.
    class ScheduleThenThrow : public Event
    {
      public:
        ScheduleThenThrow(EventQueue &q, Event &next_ev)
            : eq(q), next(next_ev)
        {}
        void
        process() override
        {
            eq.schedule(&next, eq.now() + 5);
            MCDSIM_CHECK(false, "throw after scheduling");
        }
        const char *name() const override { return "schedule-throw"; }

      private:
        EventQueue &eq;
        Event &next;
    };

    ScopedCheckThrower guard;
    EventQueue eq;
    std::vector<int> log;
    LogEvent follow(log, 42);
    ScheduleThenThrow bad(eq, follow);
    eq.schedule(&bad, 10);
    EXPECT_THROW(eq.step(), CheckFailure);
    eq.runUntil(100);
    EXPECT_EQ(log, (std::vector<int>{42}));
}

TEST(EventQueue, ProcessesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(log, 1), b(log, 2), c(log, 3);
    eq.schedule(&c, 300);
    eq.schedule(&a, 100);
    eq.schedule(&b, 200);
    eq.runUntil(1000);
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, SameTickPriorityOrder)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent lo(log, 1, 0), mid(log, 2, 5), hi(log, 3, 10);
    eq.schedule(&hi, 100);
    eq.schedule(&lo, 100);
    eq.schedule(&mid, 100);
    eq.runUntil(100);
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickSamePriorityInsertionOrder)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(log, 1), b(log, 2), c(log, 3);
    eq.schedule(&a, 50);
    eq.schedule(&b, 50);
    eq.schedule(&c, 50);
    eq.runUntil(50);
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, NowAdvancesWithProcessing)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(log, 1);
    eq.schedule(&a, 777);
    EXPECT_EQ(eq.now(), 0u);
    eq.runUntil(10000);
    EXPECT_EQ(eq.now(), 10000u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(log, 1), b(log, 2);
    eq.schedule(&a, 100);
    eq.schedule(&b, 500);
    eq.runUntil(200);
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(eq.size(), 1u);
    eq.runUntil(500);
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RescheduleAfterProcess)
{
    EventQueue eq;
    // Self-rescheduling event (like a clock edge).
    struct Ticker : Event
    {
        EventQueue &q;
        int count = 0;
        explicit Ticker(EventQueue &queue) : q(queue) {}
        void
        process() override
        {
            if (++count < 5)
                q.schedule(this, q.now() + 10);
        }
    } ticker(eq);
    eq.schedule(&ticker, 10);
    eq.runUntil(1000);
    EXPECT_EQ(ticker.count, 5);
}

TEST(EventQueue, SquashDropsEvent)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(log, 1), b(log, 2);
    eq.schedule(&a, 100);
    eq.schedule(&b, 200);
    a.squash();
    eq.runUntil(1000);
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, SquashedEventCanBeRescheduled)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(log, 1);
    eq.schedule(&a, 100);
    a.squash();
    eq.runUntil(150);
    EXPECT_FALSE(a.scheduled());
    eq.schedule(&a, 200);
    eq.runUntil(250);
    EXPECT_EQ(log, (std::vector<int>{1}));
}

TEST(EventQueue, StepConsumesOneEntry)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(log, 1), b(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(log.size(), 1u);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(log.size(), 2u);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ScheduledFlagTracksState)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(log, 1);
    EXPECT_FALSE(a.scheduled());
    eq.schedule(&a, 5);
    EXPECT_TRUE(a.scheduled());
    eq.runUntil(5);
    EXPECT_FALSE(a.scheduled());
}

TEST(EventQueue, NextEventTick)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(log, 1);
    EXPECT_EQ(eq.nextEventTick(), maxTick);
    eq.schedule(&a, 321);
    EXPECT_EQ(eq.nextEventTick(), 321u);
}

TEST(EventQueue, ProcessedCount)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(log, 1), b(log, 2);
    eq.schedule(&a, 1);
    eq.schedule(&b, 2);
    eq.runUntil(10);
    EXPECT_EQ(eq.processedCount(), 2u);
}

TEST(EventQueueDeath, DoubleSchedulePanics)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(log, 1);
    eq.schedule(&a, 10);
    EXPECT_DEATH(eq.schedule(&a, 20), "double-scheduled");
}

TEST(EventQueueDeath, PastSchedulePanics)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(log, 1), b(log, 2);
    eq.schedule(&a, 100);
    eq.runUntil(100);
    EXPECT_DEATH(eq.schedule(&b, 50), "in the past");
}

TEST(EventQueue, SameTickLowerPriorityInsertionDuringProcess)
{
    // An insertion made from process() at the current tick with a
    // *lower* priority value must still land ahead of every other
    // same-tick event.
    EventQueue eq;
    std::vector<int> log;
    LogEvent urgent(log, 2, 0);   // inserted mid-process at the same tick
    LogEvent later(log, 3, 7);    // pre-existing same-tick event

    struct Inserter : Event
    {
        EventQueue &q;
        std::vector<int> &log;
        Event &toInsert;
        Inserter(EventQueue &queue, std::vector<int> &log_ref, Event &ins)
            : Event(5), q(queue), log(log_ref), toInsert(ins)
        {}
        void
        process() override
        {
            log.push_back(1);
            q.schedule(&toInsert, q.now()); // same tick, priority 0
            q.schedule(this, q.now() + 100);
        }
        const char *name() const override { return "inserter"; }
    } inserter(eq, log, urgent);

    eq.schedule(&inserter, 100);
    eq.schedule(&later, 100);
    eq.runUntil(150);
    // inserter (prio 5) runs before later (prio 7); the mid-process
    // urgent event (prio 0) jumps the same-tick queue.
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(inserter.scheduled()); // self-rescheduled to 200
}

TEST(EventQueue, FusedRescheduleEquivalentToPopPlusPush)
{
    // The same randomized edge stream driven through two queues: in
    // queue A every ticker reschedules itself from inside process();
    // in queue B the reschedule is issued by the test loop after step()
    // returns. Identical plans must yield identical dispatch orders.
    struct PlannedTicker : Event
    {
        EventQueue &q;
        std::vector<std::pair<int, Tick>> &log;
        int id;
        std::vector<Tick> intervals;
        std::size_t next = 0;
        bool inside; ///< reschedule from within process()?

        PlannedTicker(EventQueue &queue,
                      std::vector<std::pair<int, Tick>> &log_ref, int id_,
                      int priority, std::vector<Tick> plan, bool in)
            : Event(priority), q(queue), log(log_ref), id(id_),
              intervals(std::move(plan)), inside(in)
        {}

        void
        process() override
        {
            log.push_back({id, q.now()});
            if (inside && next < intervals.size())
                q.schedule(this, q.now() + intervals[next++]);
        }
        const char *name() const override { return "planned-ticker"; }
    };

    // One shared plan: per ticker a priority, a start tick, and a
    // randomized interval sequence (with deliberate collisions: small
    // interval values make same-tick meetings frequent).
    constexpr int tickers = 16;
    constexpr int edges = 400;
    Rng rng(7);
    std::vector<int> priorities;
    std::vector<Tick> starts;
    std::vector<std::vector<Tick>> plans;
    for (int t = 0; t < tickers; ++t) {
        priorities.push_back(static_cast<int>(rng.below(4)));
        starts.push_back(1 + rng.below(8));
        std::vector<Tick> plan;
        for (int e = 0; e < edges; ++e)
            plan.push_back(1 + rng.below(7));
        plans.push_back(std::move(plan));
    }

    auto drive = [&](bool inside) {
        EventQueue eq;
        std::vector<std::pair<int, Tick>> log;
        std::vector<std::unique_ptr<PlannedTicker>> events;
        for (int t = 0; t < tickers; ++t) {
            events.push_back(std::make_unique<PlannedTicker>(
                eq, log, t, priorities[t], plans[t], inside));
            eq.schedule(events[t].get(), starts[t]);
        }
        while (!eq.empty()) {
            const std::size_t before = log.size();
            if (!eq.step())
                break;
            if (!inside && log.size() > before) {
                auto &ev = *events[log.back().first];
                if (ev.next < ev.intervals.size())
                    eq.schedule(&ev, eq.now() + ev.intervals[ev.next++]);
            }
        }
        return log;
    };

    std::vector<std::pair<int, Tick>> inside, plain;
    { SCOPED_TRACE("inside"); inside = drive(true); }
    { SCOPED_TRACE("plain"); plain = drive(false); }
    ASSERT_EQ(inside.size(),
              static_cast<std::size_t>(tickers) * (edges + 1));
    EXPECT_EQ(inside, plain);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue eq;
    std::vector<int> log;
    std::vector<std::unique_ptr<LogEvent>> events;
    // Insert in a scrambled order; expect sorted processing.
    for (int i = 0; i < 500; ++i) {
        const int tag = (i * 7919) % 500;
        events.push_back(std::make_unique<LogEvent>(log, tag));
        eq.schedule(events.back().get(), Tick(tag) * 10 + 1);
    }
    eq.runUntil(100000);
    ASSERT_EQ(log.size(), 500u);
    for (int i = 0; i < 500; ++i)
        ASSERT_EQ(log[i], i);
}

} // namespace
} // namespace mcd
