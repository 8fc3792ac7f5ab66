/** @file End-to-end observability: stats and traces from real runs. */

#include <gtest/gtest.h>

#include <string>

#include "core/mcdsim.hh"

namespace mcd
{
namespace
{

RunOptions
obsOptions()
{
    RunOptions opts;
    opts.instructions = 10000;
    opts.collectStats = true;
    opts.trace.enabled = true;
    return opts;
}

SimResult
tracedRun(const RunOptions &opts)
{
    return run(schemeSpec("epic_decode", ControllerKind::Adaptive, opts));
}

TEST(ObsIntegration, DisabledByDefaultProducesNoArtifacts)
{
    RunOptions opts;
    opts.instructions = 5000;
    const SimResult r = tracedRun(opts);
    EXPECT_TRUE(r.statsText.empty());
    EXPECT_TRUE(r.statsJson.empty());
    EXPECT_TRUE(r.traceJson.empty());
}

TEST(ObsIntegration, StatsDumpCoversEverySubsystem)
{
    const SimResult r = tracedRun(obsOptions());
    ASSERT_FALSE(r.statsText.empty());
    for (const char *key :
         {"sim.eq.processed", "sim.eq.pending", "int.clock.cycles",
          "int.controller.samples", "int.dvfs.transitions",
          "int.queue.sampled_occupancy.count", "frontend.rob.retired",
          "frontend.cycles", "sync.crossings", "power.total_j",
          "power.category.clock_j"}) {
        EXPECT_NE(r.statsText.find(key), std::string::npos)
            << "stats dump missing " << key;
    }
    EXPECT_EQ(r.statsJson.front(), '{');
}

TEST(ObsIntegration, EventsProcessedAgreesWithStatsDump)
{
    const SimResult r = tracedRun(obsOptions());
    const std::string key = "sim.eq.processed ";
    const auto pos = r.statsText.find(key);
    ASSERT_NE(pos, std::string::npos);
    const std::uint64_t dumped =
        std::stoull(r.statsText.substr(pos + key.size()));
    EXPECT_EQ(dumped, r.eventsProcessed);
}

TEST(ObsIntegration, SameSeedRunsProduceIdenticalArtifacts)
{
    const RunOptions opts = obsOptions();
    const SimResult a = tracedRun(opts);
    const SimResult b = tracedRun(opts);
    ASSERT_FALSE(a.statsText.empty());
    ASSERT_FALSE(a.traceJson.empty());
    EXPECT_EQ(a.statsText, b.statsText);
    EXPECT_EQ(a.statsJson, b.statsJson);
    EXPECT_EQ(a.traceJson, b.traceJson);
}

TEST(ObsIntegration, TraceContainsDomainTimelines)
{
    const SimResult r = tracedRun(obsOptions());
    ASSERT_FALSE(r.traceJson.empty());
    EXPECT_NE(r.traceJson.find("\"traceEvents\": ["), std::string::npos);
    // Initial operating points are seeded at t=0 for every domain.
    EXPECT_NE(r.traceJson.find("\"name\": \"freq_ghz\""),
              std::string::npos);
    // Queue-deviation samples ride the sampling grid.
    EXPECT_NE(r.traceJson.find("\"name\": \"queue\""), std::string::npos);
}

TEST(ObsIntegration, ObservabilityDoesNotPerturbSimulation)
{
    RunOptions plain;
    plain.instructions = 10000;
    const SimResult off = tracedRun(plain);
    const SimResult on = tracedRun(obsOptions());
    EXPECT_EQ(off.wallTicks, on.wallTicks);
    EXPECT_EQ(off.eventsProcessed, on.eventsProcessed);
    EXPECT_DOUBLE_EQ(off.energy, on.energy);
}

} // namespace
} // namespace mcd
