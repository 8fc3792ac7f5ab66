/** @file End-to-end observability: stats and traces from real runs. */

#include <gtest/gtest.h>

#include <string>

#include "core/mcdsim.hh"
#include "obs/debug_flags.hh"

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

TEST(ObsIntegration, EventQueueFlagPrintsOneLinePerDispatch)
{
#if MCDSIM_TRACE_ENABLED
    RunOptions opts;
    opts.instructions = 2000;
    obs::setDebugFlagMask(1u << static_cast<std::uint32_t>(
                              obs::DebugFlag::EventQueue));
    ::testing::internal::CaptureStderr();
    const SimResult r = tracedRun(opts);
    const std::string err = ::testing::internal::GetCapturedStderr();
    obs::clearDebugFlagOverride();

    std::uint64_t edges = 0;
    std::uint64_t samples = 0;
    std::size_t pos = 0;
    const std::string tag = "trace[EventQueue]: t=";
    while ((pos = err.find(tag, pos)) != std::string::npos) {
        const std::size_t eol = err.find('\n', pos);
        const std::string line = err.substr(pos, eol - pos);
        edges += line.find(" dispatch clock-edge prio=") != std::string::npos;
        samples +=
            line.find(" dispatch dvfs-sampler prio=50") != std::string::npos;
        pos = eol;
    }
    EXPECT_GT(samples, 0u);
    EXPECT_EQ(edges + samples, r.eventsProcessed);
#else
    GTEST_SKIP() << "MCDSIM_TRACE is compiled out of this build";
#endif
}

} // namespace
} // namespace mcd
