/** @file Tests for the hierarchical stats registry. */

#include <gtest/gtest.h>

#include "common/check.hh"
#include "obs/stats_registry.hh"

namespace mcd
{
namespace
{

using obs::StatsRegistry;

TEST(StatsRegistry, OwnedStatsRoundTrip)
{
    StatsRegistry reg;
    auto &c = reg.addCounter("sim.events", "kernel events");
    auto &g = reg.addGauge("int.clock.freq_ghz", "frequency");
    auto &d = reg.addDistribution("int.queue.occ", "occupancy");
    auto &h = reg.addHistogram("int.queue.hist", "occupancy bins", 0.0,
                               16.0, 4);
    ++c;
    c.add(9);
    g.set(0.75);
    d.add(2.0);
    d.add(4.0);
    h.add(1.0);

    EXPECT_EQ(c.value(), 10u);
    EXPECT_DOUBLE_EQ(g.value(), 0.75);
    EXPECT_EQ(d.summary().count(), 2u);
    EXPECT_EQ(h.totalCount(), 1u);
    EXPECT_EQ(reg.size(), 4u);
    EXPECT_TRUE(reg.contains("sim.events"));
    EXPECT_FALSE(reg.contains("sim.missing"));
}

TEST(StatsRegistry, CallbacksReadAtDumpTime)
{
    StatsRegistry reg;
    std::uint64_t events = 0;
    reg.addIntCallback("eq.processed", "events", [&] { return events; });
    events = 42;
    const std::string text = reg.renderText();
    EXPECT_NE(text.find("eq.processed 42"), std::string::npos);
}

TEST(StatsRegistry, TextDumpIsSortedByName)
{
    StatsRegistry reg;
    reg.addCounter("zeta.x", "late");
    reg.addCounter("alpha.x", "early");
    reg.addCounter("fp.clock.cycles", "middle");
    const std::string text = reg.renderText();
    const auto a = text.find("alpha.x");
    const auto f = text.find("fp.clock.cycles");
    const auto z = text.find("zeta.x");
    EXPECT_LT(a, f);
    EXPECT_LT(f, z);
}

TEST(StatsRegistry, DistributionExpandsIntoSubKeys)
{
    StatsRegistry reg;
    auto &d = reg.addDistribution("q.occ", "occupancy");
    d.add(1.0);
    d.add(3.0);
    const std::string text = reg.renderText();
    EXPECT_NE(text.find("q.occ.count 2"), std::string::npos);
    EXPECT_NE(text.find("q.occ.mean 2"), std::string::npos);
    EXPECT_NE(text.find("q.occ.min 1"), std::string::npos);
    EXPECT_NE(text.find("q.occ.max 3"), std::string::npos);
}

TEST(StatsRegistry, JsonIsFlatAndKeyedByName)
{
    StatsRegistry reg;
    reg.addCounter("a.b", "x");
    reg.addGauge("a.c", "y").set(2.5);
    const std::string json = reg.renderJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '\n');
    EXPECT_NE(json.find("\"a.b\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"a.c\": 2.5"), std::string::npos);
}

TEST(StatsRegistryDeath, RejectsDuplicateAndInvalidNames)
{
    ScopedCheckThrower throwing;
    StatsRegistry reg;
    reg.addCounter("dup", "first");
    EXPECT_THROW(reg.addCounter("dup", "second"), CheckFailure);
    EXPECT_THROW(reg.addCounter("", "empty"), CheckFailure);
    EXPECT_THROW(reg.addCounter("has space", "ws"), CheckFailure);
}

} // namespace
} // namespace mcd
