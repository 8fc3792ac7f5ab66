/** @file Tests for GALS clock domains. */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/digest.hh"
#include "common/error.hh"
#include "common/random.hh"
#include "mcd/clock_domain.hh"

namespace mcd
{
namespace
{

ClockDomain::Config
jitterFree(DomainId id = DomainId::Int, Hertz f = gigaHertz(1.0))
{
    ClockDomain::Config cfg;
    cfg.id = id;
    cfg.initialHz = f;
    cfg.initialVolt = 1.2;
    cfg.jitterEnabled = false;
    return cfg;
}

TEST(ClockDomain, EdgesOnExactGridWithoutJitter)
{
    EventQueue eq;
    ClockDomain dom(eq, jitterFree());
    std::vector<Tick> edges;
    dom.start([&] { edges.push_back(eq.now()); });
    eq.runUntil(ticksFromNs(10));
    ASSERT_EQ(edges.size(), 10u);
    for (std::size_t i = 0; i < edges.size(); ++i)
        EXPECT_EQ(edges[i], ticksFromNs(i + 1));
}

TEST(ClockDomain, CycleCountMatchesEdges)
{
    EventQueue eq;
    ClockDomain dom(eq, jitterFree());
    dom.start([] {});
    eq.runUntil(ticksFromNs(100));
    EXPECT_EQ(dom.cycleCount(), 100u);
}

TEST(ClockDomain, SlowerClockTicksProportionallyLess)
{
    EventQueue eq;
    ClockDomain fast(eq, jitterFree(DomainId::Int, gigaHertz(1.0)));
    ClockDomain slow(eq,
                     jitterFree(DomainId::Fp, megaHertz(250)));
    fast.start([] {});
    slow.start([] {});
    eq.runUntil(ticksFromUs(1));
    EXPECT_EQ(fast.cycleCount(), 1000u);
    EXPECT_EQ(slow.cycleCount(), 250u);
}

TEST(ClockDomain, FrequencyChangeAppliesFromFollowingEdge)
{
    EventQueue eq;
    ClockDomain dom(eq, jitterFree());
    std::vector<Tick> edges;
    dom.start([&] {
        edges.push_back(eq.now());
        if (edges.size() == 3) {
            // Halve frequency at the third edge.
            dom.applyOperatingPoint(megaHertz(500), 0.9);
        }
    });
    eq.runUntil(ticksFromNs(12));
    // Edges: 1, 2, 3 (change), then 5, 7, 9, 11.
    ASSERT_GE(edges.size(), 7u);
    EXPECT_EQ(edges[2], ticksFromNs(3));
    EXPECT_EQ(edges[3], ticksFromNs(5));
    EXPECT_EQ(edges[4], ticksFromNs(7));
    EXPECT_DOUBLE_EQ(dom.frequency(), megaHertz(500));
    EXPECT_DOUBLE_EQ(dom.voltage(), 0.9);
}

TEST(ClockDomain, JitterStaysWithinClamp)
{
    EventQueue eq;
    ClockDomain::Config cfg = jitterFree();
    cfg.jitterEnabled = true;
    cfg.jitterSigmaFs = 3333.0;
    cfg.jitterClampFs = 10000; // +-10 ps
    ClockDomain dom(eq, cfg);
    std::vector<Tick> edges;
    dom.start([&] { edges.push_back(eq.now()); });
    eq.runUntil(ticksFromUs(1));
    ASSERT_GT(edges.size(), 900u);
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const auto ideal = static_cast<double>(ticksFromNs(i + 1));
        const auto actual = static_cast<double>(edges[i]);
        EXPECT_LE(std::abs(actual - ideal), 10000.0)
            << "edge " << i;
    }
}

TEST(ClockDomain, JitterDoesNotAccumulateDrift)
{
    EventQueue eq;
    ClockDomain::Config cfg = jitterFree();
    cfg.jitterEnabled = true;
    ClockDomain dom(eq, cfg);
    dom.start([] {});
    eq.runUntil(ticksFromUs(10));
    // 10 us at 1 GHz = 10000 cycles; jitter may lose at most a cycle.
    EXPECT_NEAR(static_cast<double>(dom.cycleCount()), 10000.0, 2.0);
}

TEST(ClockDomain, JitterIsDeterministicPerSeed)
{
    auto run = [](std::uint64_t seed) {
        EventQueue eq;
        ClockDomain::Config cfg = jitterFree();
        cfg.jitterEnabled = true;
        cfg.jitterSeed = seed;
        ClockDomain dom(eq, cfg);
        std::vector<Tick> edges;
        dom.start([&] { edges.push_back(eq.now()); });
        eq.runUntil(ticksFromNs(100));
        return edges;
    };
    EXPECT_EQ(run(1), run(1));
    EXPECT_NE(run(1), run(2));
}

TEST(ClockDomain, VoltSquaredSecondsAccrues)
{
    EventQueue eq;
    ClockDomain dom(eq, jitterFree());
    dom.start([] {});
    eq.runUntil(ticksFromUs(1));
    dom.accrueVoltageTime();
    // 1.2^2 * 1e-6 s = 1.44e-6, within an edge of slack.
    EXPECT_NEAR(dom.voltSquaredSeconds(), 1.44e-6, 1.44e-8);
}

TEST(ClockDomain, NextEdgeAtOrAfter)
{
    EventQueue eq;
    ClockDomain dom(eq, jitterFree());
    dom.start([] {});
    // Before any edge: next edge at 1 ns.
    EXPECT_EQ(dom.nextEdgeAtOrAfter(0), ticksFromNs(1));
    EXPECT_EQ(dom.nextEdgeAtOrAfter(ticksFromNs(1)), ticksFromNs(1));
    // Extrapolates on the grid.
    EXPECT_EQ(dom.nextEdgeAtOrAfter(ticksFromNs(5) + 1), ticksFromNs(6));
}

TEST(ClockDomain, OwnerClockedMatchesQueueBound)
{
    // The owner-clocked step (the processor's path) and the queue-bound
    // adapter run the same edge code: same edge times, jitter included,
    // across several jitter-block refills.
    ClockDomain::Config cfg = jitterFree(DomainId::Fp, gigaHertz(0.8));
    cfg.jitterEnabled = true;
    cfg.jitterSeed = 99;

    EventQueue eq;
    ClockDomain queued(eq, cfg);
    std::vector<Tick> viaQueue;
    queued.start([&] { viaQueue.push_back(eq.now()); });
    eq.runUntil(ticksFromNs(400));

    Tick now = 0;
    ClockDomain owned(now, cfg);
    owned.start();
    std::vector<Tick> viaOwner;
    while (owned.nextEdgeTime() <= ticksFromNs(400)) {
        now = owned.nextEdgeTime();
        owned.edge([&] { viaOwner.push_back(now); });
    }
    ASSERT_GT(viaOwner.size(), 300u);
    EXPECT_EQ(viaOwner, viaQueue);
    EXPECT_EQ(owned.cycleCount(), queued.cycleCount());
}

TEST(ClockDomain, JitteredEdgesArePinned)
{
    // The first 10^5 edge times of a jittered INT domain at the default
    // seed, sigma and clamp: any change to the jitter stream or to the
    // edge placement moves this digest.
    ClockDomain::Config cfg = jitterFree();
    cfg.jitterEnabled = true;
    Tick now = 0;
    ClockDomain dom(now, cfg);
    dom.start();
    std::string text;
    for (int i = 0; i < 100000; ++i) {
        text += std::to_string(dom.nextEdgeTime());
        text += '\n';
        now = dom.nextEdgeTime();
        dom.edge([] {});
    }
    EXPECT_EQ(
        sha256Hex(text),
        "ada3e2a0d32e132c24d61c53e9a98ad37b11b3d5aba69e8b102e96695aecfa33");
}

TEST(ClockDomain, NonPositiveFrequencyIsAConfigError)
{
    Tick now = 0;
    ClockDomain::Config cfg = jitterFree();
    cfg.initialHz = 0.0;
    EXPECT_THROW((ClockDomain{now, cfg}), ConfigError);
}

TEST(EarliestSlot, LowestSlotWinsTies)
{
    SlotTimes t;
    t.fill(maxTick);
    t[samplerSlot] = 40;
    EXPECT_EQ(earliestSlot(t), samplerSlot);
    t[3] = 40;
    EXPECT_EQ(earliestSlot(t), 3u); // an edge runs before the sampler
    t[1] = 40;
    EXPECT_EQ(earliestSlot(t), 1u);
    t[2] = 39;
    EXPECT_EQ(earliestSlot(t), 2u);
    t[0] = 39;
    EXPECT_EQ(earliestSlot(t), 0u);
}

TEST(EarliestSlot, MatchesEventQueueOrderOnRandomPlans)
{
    // Each slot follows a random plan of intervals drawn from a tiny
    // range, so domains meet at equal ticks and the sampler often lands
    // on an edge. An EventQueue holding one event per slot, at the
    // priorities the processor's events had (domain id; 50 for the
    // sampler), must dispatch in exactly the order earliestSlot picks.
    struct PlannedSlot : Event
    {
        EventQueue &q;
        std::vector<std::pair<std::size_t, Tick>> &log;
        std::size_t slot;
        const std::vector<Tick> &plan;
        std::size_t next = 0;

        PlannedSlot(EventQueue &queue,
                    std::vector<std::pair<std::size_t, Tick>> &log_ref,
                    std::size_t s, const std::vector<Tick> &p)
            : Event(s == samplerSlot ? 50 : static_cast<int>(s)), q(queue),
              log(log_ref), slot(s), plan(p)
        {}

        void
        process() override
        {
            log.push_back({slot, q.now()});
            q.schedule(this, q.now() + plan[next++ % plan.size()]);
        }
    };

    constexpr std::size_t events = 400;
    std::size_t ties = 0;
    std::size_t samplerOnEdge = 0;
    for (std::uint64_t trial = 0; trial < 40; ++trial) {
        Rng rng(trial + 1);
        const bool fiveDomains = rng.chance(0.5);
        std::vector<std::vector<Tick>> plans(samplerSlot + 1);
        SlotTimes start;
        start.fill(maxTick);
        for (std::size_t s = 0; s <= samplerSlot; ++s) {
            if (s == 4 && !fiveDomains)
                continue;
            const bool sampler = s == samplerSlot;
            for (int i = 0; i < 16; ++i)
                plans[s].push_back(sampler ? 2 + trial % 3
                                           : 1 + rng.below(4));
            start[s] = 1 + rng.below(3);
        }

        EventQueue eq;
        std::vector<std::pair<std::size_t, Tick>> queued;
        std::vector<std::unique_ptr<PlannedSlot>> slots;
        for (std::size_t s = 0; s <= samplerSlot; ++s) {
            if (start[s] == maxTick)
                continue;
            slots.push_back(
                std::make_unique<PlannedSlot>(eq, queued, s, plans[s]));
            eq.schedule(slots.back().get(), start[s]);
        }
        for (std::size_t i = 0; i < events; ++i)
            ASSERT_TRUE(eq.step());

        std::vector<std::pair<std::size_t, Tick>> scanned;
        SlotTimes t = start;
        std::vector<std::size_t> next(samplerSlot + 1, 0);
        for (std::size_t i = 0; i < events; ++i) {
            const std::size_t s = earliestSlot(t);
            const Tick now = t[s];
            if (!scanned.empty() && scanned.back().second == now) {
                ++ties;
                samplerOnEdge += s == samplerSlot;
            }
            scanned.push_back({s, now});
            t[s] = now + plans[s][next[s]++ % plans[s].size()];
        }
        ASSERT_EQ(scanned, queued) << "trial " << trial;
    }
    // The plans really exercised both kinds of tie.
    EXPECT_GT(ties, 1000u);
    EXPECT_GT(samplerOnEdge, 100u);
}

TEST(ClockDomain, DomainNames)
{
    EXPECT_STREQ(domainName(DomainId::FrontEnd), "frontend");
    EXPECT_STREQ(domainName(DomainId::Int), "int");
    EXPECT_STREQ(domainName(DomainId::Fp), "fp");
    EXPECT_STREQ(domainName(DomainId::LoadStore), "ls");
}

} // namespace
} // namespace mcd
