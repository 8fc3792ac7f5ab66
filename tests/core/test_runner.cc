/** @file Tests for the experiment runner and comparison metrics. */

#include <gtest/gtest.h>

#include "campaign/campaign.hh"
#include "core/run_spec.hh"
#include "exec/run.hh"
#include "core/runner.hh"

namespace mcd
{
namespace
{

RunOptions
quickOpts()
{
    RunOptions opts;
    opts.instructions = 40000;
    return opts;
}

/** The comparison table of @p kinds on @p names, via Campaign. */
std::vector<ComparisonRow>
compareSchemes(std::vector<std::string> names,
               std::vector<ControllerKind> kinds, const RunOptions &opts)
{
    CampaignSpec cs;
    cs.benchmarks = std::move(names);
    cs.schemes = std::move(kinds);
    cs.options = opts;
    return comparisonRows(cs, Campaign(cs).run());
}

TEST(Metrics, CompareMath)
{
    SimResult base;
    base.energy = 10.0;
    base.wallTicks = 1000;
    SimResult run;
    run.energy = 9.0;
    run.wallTicks = 1050;

    const Comparison c = compare(run, base);
    EXPECT_NEAR(c.energySavings, 0.10, 1e-12);
    EXPECT_NEAR(c.perfDegradation, 0.05, 1e-12);
    // EDP: 9*1050 vs 10*1000 -> 1 - 0.945 = 0.055.
    EXPECT_NEAR(c.edpImprovement, 1.0 - 9.0 * 1050 / (10.0 * 1000),
                1e-12);
}

TEST(Metrics, CompareDegenerateBaseline)
{
    SimResult base;
    SimResult run;
    const Comparison c = compare(run, base);
    EXPECT_DOUBLE_EQ(c.energySavings, 0.0);
    EXPECT_DOUBLE_EQ(c.perfDegradation, 0.0);
}

TEST(Metrics, EdpAndEd2p)
{
    SimResult r;
    r.energy = 2.0;
    r.wallTicks = ticksFromSeconds(3.0);
    EXPECT_NEAR(r.edp(), 6.0, 1e-9);
    EXPECT_NEAR(r.ed2p(), 18.0, 1e-9);
}

TEST(Runner, BaselinesAreLabeled)
{
    const auto opts = quickOpts();
    const SimResult sync = run(syncBaselineSpec("adpcm_enc", opts));
    EXPECT_EQ(sync.controller, "sync-baseline");
    const SimResult mcd = run(mcdBaselineSpec("adpcm_enc", opts));
    EXPECT_EQ(mcd.controller, "mcd-baseline");
    EXPECT_EQ(sync.instructions, mcd.instructions);
}

TEST(Runner, RunBenchmarkHonorsScheme)
{
    const auto opts = quickOpts();
    const SimResult r =
        run(schemeSpec("adpcm_enc", ControllerKind::Adaptive, opts));
    EXPECT_EQ(r.controller, "adaptive");
    EXPECT_EQ(r.benchmark, "adpcm_enc");
    EXPECT_EQ(r.instructions, opts.instructions);
}

TEST(Runner, ComparisonRowsCoverMatrix)
{
    const auto opts = quickOpts();
    const auto rows = compareSchemes(
        {"adpcm_enc", "swim"},
        {ControllerKind::Adaptive, ControllerKind::Pid}, opts);
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0].benchmark, "adpcm_enc");
    EXPECT_EQ(rows[0].scheme, "adaptive");
    EXPECT_EQ(rows[3].benchmark, "swim");
    EXPECT_EQ(rows[3].scheme, "pid-fixed-interval");
}

TEST(Runner, AdaptiveSavesEnergyOnIdleFpDomain)
{
    // adpcm has no FP work at all: DVFS must save energy relative to
    // the full-speed MCD baseline even on a short run.
    const auto opts = quickOpts();
    const auto rows =
        compareSchemes({"adpcm_enc"}, {ControllerKind::Adaptive}, opts);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_GT(rows[0].vsBaseline.energySavings, 0.0);
}

TEST(Runner, SeedChangesWorkload)
{
    RunOptions a = quickOpts();
    a.seed = 1;
    RunOptions b = quickOpts();
    b.seed = 2;
    const SimResult ra = run(mcdBaselineSpec("gzip", a));
    const SimResult rb = run(mcdBaselineSpec("gzip", b));
    EXPECT_NE(ra.wallTicks, rb.wallTicks);
}

} // namespace
} // namespace mcd
