/**
 * @file
 * Parked clock domains (core/mcd_processor.*): a domain whose coming
 * edges can change only its own accumulators skips them and replays
 * them later, in its own order. These tests hold that to the bytes of
 * the per-edge path, which a nonzero event budget selects; a budget of
 * UINT64_MAX never trips. They also check that parking really runs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/mcd_processor.hh"
#include "core/mcdsim.hh"
#include "workload/benchmarks.hh"

namespace mcd
{
namespace
{

constexpr std::uint64_t kInsts = 20000;

/** The comparison's four runs of @p bench, stats and traces on. */
std::vector<RunSpec>
comparisonSpecs(const std::string &bench, bool five_domains)
{
    RunOptions opts;
    opts.instructions = kInsts;
    opts.seed = 1;
    opts.recordTraces = true;
    opts.collectStats = true;
    opts.trace.enabled = true; // clock-edge events stay off
    opts.config.fiveDomainPartition = five_domains;
    std::vector<RunSpec> specs = {mcdBaselineSpec(bench, opts)};
    for (ControllerKind kind : {ControllerKind::Adaptive, ControllerKind::Pid,
                                ControllerKind::AttackDecay})
        specs.push_back(schemeSpec(bench, kind, opts));
    return specs;
}

/** @p spec's result digest, and the per-edge path's for the same run. */
std::pair<std::string, std::string>
parkedAndPerEdge(RunSpec spec)
{
    const std::string parked = sha256Hex(serializeResult(run(spec)));
    spec.options.config.eventBudget = UINT64_MAX;
    return {parked, sha256Hex(serializeResult(run(spec)))};
}

std::string
describe(const RunSpec &spec)
{
    return spec.benchmark + " " + runLabel(spec) +
           (spec.options.config.fiveDomainPartition ? ", 5 domains"
                                                    : ", 4 domains");
}

class ParkedEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>>
{};

TEST_P(ParkedEquivalence, MatchesPerEdgeDispatch)
{
    const auto [index, five_domains] = GetParam();
    for (const RunSpec &spec :
         comparisonSpecs(benchmarkList().at(index).name, five_domains)) {
        const auto [parked, per_edge] = parkedAndPerEdge(spec);
        EXPECT_EQ(parked, per_edge) << describe(spec);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, ParkedEquivalence,
    ::testing::Combine(::testing::Range<std::size_t>(0, benchmarkList().size()),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, bool>> &info) {
        return benchmarkList().at(std::get<0>(info.param)).name +
               (std::get<1>(info.param) ? "_5_domains" : "_4_domains");
    });

TEST(ParkedDomains, FaultPlanMatchesPerEdgeDispatch)
{
    // Perturbed samples, dropped and delayed decisions and clamped
    // targets change the operating points the catch-ups replay across.
    RunOptions opts;
    opts.instructions = kInsts;
    opts.seed = 1;
    opts.config.faults = FaultPlan::parseShared(
        "sensor-noise:amp=2,rate=0.5;drop-update:rate=0.1;"
        "delay-update:samples=2;clamp-vf:lo=0.5,hi=0.9");
    for (const char *bench : {"mcf", "gcc", "swim"}) {
        for (const bool five_domains : {false, true}) {
            RunSpec spec = schemeSpec(bench, ControllerKind::Adaptive, opts);
            spec.options.config.fiveDomainPartition = five_domains;
            const auto [parked, per_edge] = parkedAndPerEdge(spec);
            EXPECT_EQ(parked, per_edge) << describe(spec);
        }
    }
}

TEST(ParkedDomains, RelockStallsMatchPerEdgeDispatch)
{
    // Transmeta-style transitions stall a cluster for 20 us: stalled
    // edges are idle whatever the queue holds. The stalls stretch a
    // run to ~10^4 edges per instruction, hence the short runs; each
    // still makes 60-110 transitions.
    RunOptions opts;
    opts.instructions = 400;
    opts.seed = 1;
    opts.config.dvfsModel = DvfsModel::transmeta();
    for (const char *bench : {"mcf", "gcc", "swim"}) {
        const auto [parked, per_edge] = parkedAndPerEdge(
            schemeSpec(bench, ControllerKind::Adaptive, opts));
        EXPECT_EQ(parked, per_edge) << bench;
    }
}

/** Edges run and edges replayed by one @p bench/adaptive run. */
struct EdgeCounts
{
    std::uint64_t edges = 0;
    std::uint64_t replayed = 0;
};

EdgeCounts
edgeCounts(const char *bench, std::uint64_t event_budget)
{
    RunOptions opts;
    opts.instructions = kInsts;
    opts.seed = 1;
    RunSpec spec = schemeSpec(bench, ControllerKind::Adaptive, opts);
    spec.options.config.eventBudget = event_budget;
    const SimConfig cfg = resolveConfig(spec);
    auto source = makeBenchmark(bench, kInsts, cfg.seed);
    McdProcessor proc(cfg, *source);
    const SimResult r = proc.run(kInsts);
    // Every sampler tick feeds the INT controller one sample.
    return {r.eventsProcessed - r.domains[0].controllerStats.samples,
            proc.replayedEdgeCount()};
}

TEST(ParkedDomains, McfReplaysMostEdges)
{
    const EdgeCounts c = edgeCounts("mcf", 0);
    EXPECT_GT(c.replayed * 10, c.edges * 8)
        << c.replayed << " of " << c.edges << " edges replayed";
}

TEST(ParkedDomains, WritesElsewhereKeepQueuesParked)
{
    // A dispatch or an issue resumes no parked cluster whose own queue
    // it leaves alone. Resuming every parked domain at every
    // completion-table write replayed 289,436 of gcc's 343,277 edges;
    // waking only the queue written replays 311,299.
    const EdgeCounts c = edgeCounts("gcc", 0);
    EXPECT_GT(c.replayed, 300000u)
        << c.replayed << " of " << c.edges << " edges replayed";
}

TEST(ParkedDomains, EventBudgetSelectsPerEdgePath)
{
    EXPECT_EQ(edgeCounts("mcf", UINT64_MAX).replayed, 0u);
}

} // namespace
} // namespace mcd
