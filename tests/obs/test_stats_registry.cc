/** @file Tests for the hierarchical stats registry. */

#include <gtest/gtest.h>

#include <cstdint>

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
    auto &d = reg.addDistribution("int.queue.occ", "occupancy");
    reg.addIntCallback("sim.events", "kernel events",
                       [] { return std::uint64_t{10}; });
    reg.addCallback("int.clock.freq_ghz", "frequency", [] { return 0.75; });
    d.add(2.0);
    d.add(4.0);

    EXPECT_EQ(d.summary().count(), 2u);
    EXPECT_EQ(reg.size(), 3u);
    EXPECT_TRUE(reg.contains("sim.events"));
    EXPECT_TRUE(reg.contains("int.queue.occ"));
    EXPECT_FALSE(reg.contains("sim.missing"));
    const std::string text = reg.renderText();
    EXPECT_NE(text.find("sim.events 10 # kernel events"), std::string::npos);
    EXPECT_NE(text.find("int.clock.freq_ghz 0.75"), std::string::npos);
    EXPECT_NE(text.find("int.queue.occ.count 2"), std::string::npos);
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
    const auto zero = [] { return std::uint64_t{0}; };
    reg.addIntCallback("zeta.x", "late", zero);
    reg.addIntCallback("alpha.x", "early", zero);
    reg.addIntCallback("fp.clock.cycles", "middle", zero);
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
    reg.addIntCallback("a.b", "x", [] { return std::uint64_t{0}; });
    reg.addCallback("a.c", "y", [] { return 2.5; });
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
    reg.addDistribution("dup", "first");
    EXPECT_THROW(reg.addDistribution("dup", "second"), CheckFailure);
    EXPECT_THROW(reg.addDistribution("", "empty"), CheckFailure);
    EXPECT_THROW(reg.addDistribution("has space", "ws"), CheckFailure);
}

} // namespace
} // namespace mcd
