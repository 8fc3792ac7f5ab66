/**
 * @file
 * Campaign engine contracts: deterministic expansion order, shard
 * partitioning, cache-backed resumability (warm run = 100% hits with
 * byte-identical tables), manifest round trips, and shard merges
 * that reproduce the unsharded result exactly.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "campaign/campaign.hh"
#include "common/error.hh"
#include "core/report.hh"
#include "fault/fault_plan.hh"

namespace fs = std::filesystem;

namespace mcd
{
namespace
{

CampaignSpec
quickCampaign()
{
    CampaignSpec spec;
    spec.benchmarks = {"adpcm_enc", "gzip"};
    spec.schemes = {ControllerKind::Adaptive, ControllerKind::Pid};
    spec.options.instructions = 20000;
    return spec;
}

std::string
tableOf(const CampaignSpec &spec, const CampaignResult &result)
{
    std::ostringstream csv;
    writeComparisonCsv(csv, comparisonRows(spec, result));
    return csv.str();
}

class CampaignTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = fs::path(::testing::TempDir()) /
              ("mcdsim-campaign-" +
               std::string(::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name()));
        fs::remove_all(dir);
    }

    void TearDown() override { fs::remove_all(dir); }

    RunCache
    makeCache()
    {
        return RunCache(
            CacheConfig{dir.string(), CacheMode::ReadWrite});
    }

    fs::path dir;
};

TEST(CampaignExpand, OrderAndValidation)
{
    const CampaignSpec spec = quickCampaign();
    const auto runs = expandCampaign(spec);
    // Per benchmark: mcd-baseline, then the schemes, in spec order.
    ASSERT_EQ(runs.size(), 6u);
    EXPECT_EQ(runs[0].kind, RunKind::McdBaseline);
    EXPECT_EQ(runs[0].benchmark, "adpcm_enc");
    EXPECT_EQ(runs[1].kind, RunKind::Scheme);
    EXPECT_EQ(runs[1].controller, ControllerKind::Adaptive);
    EXPECT_EQ(runs[2].controller, ControllerKind::Pid);
    EXPECT_EQ(runs[3].benchmark, "gzip");

    CampaignSpec empty;
    EXPECT_THROW(expandCampaign(empty), ConfigError);

    CampaignSpec seeded = quickCampaign();
    seeded.seeds = {1, 2};
    EXPECT_EQ(expandCampaign(seeded).size(), 12u);
}

TEST(CampaignShard, ParseAndPartition)
{
    const Shard s = parseShard("2/3");
    EXPECT_EQ(s.index, 2u);
    EXPECT_EQ(s.count, 3u);
    EXPECT_THROW(parseShard("0/3"), ConfigError);
    EXPECT_THROW(parseShard("4/3"), ConfigError);
    EXPECT_THROW(parseShard("abc"), ConfigError);
    EXPECT_THROW(parseShard("1/"), ConfigError);

    // Every expansion index lands in exactly one of N shards.
    for (std::size_t i = 0; i < 10; ++i) {
        int owners = 0;
        for (std::uint32_t k = 1; k <= 3; ++k)
            owners += shardContains(Shard{k, 3}, i) ? 1 : 0;
        EXPECT_EQ(owners, 1);
    }
}

TEST(CampaignShard, RejectsFieldsThatWouldWrap)
{
    // 2^32 + 1 / 2^32 + 2 narrowed to uint32_t used to run as 1/2;
    // 2^64 + 1 wrapped to 1 the same way.
    EXPECT_THROW(parseShard("4294967297/4294967298"), ConfigError);
    EXPECT_THROW(parseShard("18446744073709551617/2"), ConfigError);
    EXPECT_THROW(parseShard("/3"), ConfigError);
    EXPECT_THROW(parseShard("1/2/3"), ConfigError);
    const Shard widest = parseShard("4294967295/4294967295");
    EXPECT_EQ(widest.index, 4294967295u);
    EXPECT_EQ(widest.count, 4294967295u);
}

TEST_F(CampaignTest, ExplicitSpecListRunsEachSpecUnderItsOwnOptions)
{
    // A spec list is a campaign too: each run takes its instruction
    // budget and config from its own RunSpec, results come back in
    // spec order, and the cache keys on each spec's own options.
    RunOptions shortRun;
    shortRun.instructions = 5000;
    RunOptions longRun = shortRun;
    longRun.instructions = 9000;
    longRun.config.adaptive.levelDeviationWindow = 3.0;
    const std::vector<RunSpec> specs = {
        schemeSpec("gzip", ControllerKind::Adaptive, longRun),
        mcdBaselineSpec("gzip", shortRun),
        schemeSpec("gzip", ControllerKind::Adaptive, shortRun),
    };

    RunCache cache = makeCache();
    const CampaignResult cold = Campaign(specs, &cache).run();
    ASSERT_EQ(cold.runs.size(), 3u);
    EXPECT_EQ(cold.failed, 0u);
    EXPECT_EQ(cold.runs[0].outcome.result.instructions, 9000u);
    EXPECT_EQ(cold.runs[1].outcome.result.instructions, 5000u);
    EXPECT_EQ(cold.runs[2].outcome.result.instructions, 5000u);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(cold.runs[i].digest, specDigest(specs[i]));
        EXPECT_EQ(resultCsvRow(cold.runs[i].outcome.result),
                  resultCsvRow(run(specs[i])));
    }

    const CampaignResult warm = Campaign(specs, &cache).run();
    EXPECT_EQ(warm.cached, 3u);
    EXPECT_EQ(resultCsvRow(warm.runs[0].outcome.result),
              resultCsvRow(cold.runs[0].outcome.result));
}

TEST(CampaignErrors, BadSchemeConfigFailsOnlyItsOwnRun)
{
    // A controller that rejects its parameters throws ConfigError in
    // the worker instead of exiting the process: the campaign still
    // returns every run, and the other scheme's run is unaffected.
    RunOptions opts;
    opts.instructions = 5000;
    opts.config.pid.intervalSamples = 0;
    const std::vector<RunSpec> specs = {
        schemeSpec("mcf", ControllerKind::Adaptive, opts),
        schemeSpec("mcf", ControllerKind::Pid, opts),
    };
    const CampaignResult result = Campaign(specs, nullptr).run();
    ASSERT_EQ(result.runs.size(), 2u);
    EXPECT_EQ(result.failed, 1u);
    EXPECT_EQ(result.runs[0].outcome.status, RunStatus::Ok);
    EXPECT_EQ(result.runs[0].outcome.result.instructions, 5000u);
    EXPECT_EQ(result.runs[1].outcome.status, RunStatus::Failed);
    EXPECT_NE(result.runs[1].outcome.error.find("interval"),
              std::string::npos);
}

TEST(CampaignExpand, SpecConstructorMatchesExpansion)
{
    const CampaignSpec spec = quickCampaign();
    const Campaign fromSpec(spec);
    const Campaign fromList(expandCampaign(spec));
    ASSERT_EQ(fromSpec.runs().size(), fromList.runs().size());
    for (std::size_t i = 0; i < fromSpec.runs().size(); ++i)
        EXPECT_EQ(canonicalText(fromSpec.runs()[i]),
                  canonicalText(fromList.runs()[i]));
}

TEST_F(CampaignTest, WarmRunServesEverythingFromCache)
{
    const CampaignSpec spec = quickCampaign();

    RunCache cold = makeCache();
    CampaignResult first = Campaign(spec, &cold).run();
    EXPECT_EQ(first.total, 6u);
    EXPECT_EQ(first.executed, 6u);
    EXPECT_EQ(first.cached, 0u);
    EXPECT_EQ(first.failed, 0u);
    EXPECT_EQ(first.cacheStats.stores, 6u);

    RunCache warm = makeCache();
    CampaignResult second = Campaign(spec, &warm).run();
    EXPECT_EQ(second.executed, 0u);
    EXPECT_EQ(second.cached, 6u);
    EXPECT_EQ(second.cacheStats.hits, 6u);

    // Resumability's whole contract: the warm table is the cold one.
    EXPECT_EQ(tableOf(spec, second), tableOf(spec, first));

    // And both match a no-cache run.
    CampaignResult uncached = Campaign(spec, nullptr).run();
    EXPECT_EQ(tableOf(spec, uncached), tableOf(spec, first));
}

TEST_F(CampaignTest, ShardsMergeToTheUnshardedResult)
{
    const CampaignSpec spec = quickCampaign();

    RunCache reference = makeCache();
    const CampaignResult whole = Campaign(spec, &reference).run();

    const fs::path shardDir = dir / "shards";
    fs::create_directories(shardDir);
    RunCache shardCache(
        CacheConfig{(dir / "shard-cache").string(),
                    CacheMode::ReadWrite});

    std::vector<std::string> manifests;
    std::size_t inShardTotal = 0;
    for (std::uint32_t k = 1; k <= 3; ++k) {
        Campaign campaign(spec, &shardCache);
        const CampaignResult part = campaign.run(Shard{k, 3});
        EXPECT_LT(part.runs.size(), part.total);
        inShardTotal += part.runs.size();
        const std::string path =
            (shardDir / ("m" + std::to_string(k) + ".txt")).string();
        writeManifest(part, path);
        manifests.push_back(path);
    }
    EXPECT_EQ(inShardTotal, whole.total);

    RunCache mergeCache(CacheConfig{(dir / "shard-cache").string(),
                                    CacheMode::Read});
    const CampaignResult merged =
        mergeShards(spec, manifests, mergeCache);
    EXPECT_EQ(merged.runs.size(), merged.total);
    EXPECT_EQ(merged.failed, 0u);
    EXPECT_EQ(tableOf(spec, merged), tableOf(spec, whole));

    // A missing manifest leaves a gap, which merge must refuse.
    manifests.pop_back();
    RunCache againCache(CacheConfig{(dir / "shard-cache").string(),
                                    CacheMode::Read});
    EXPECT_THROW(mergeShards(spec, manifests, againCache),
                 ConfigError);
}

TEST_F(CampaignTest, MergeRejectsForeignManifest)
{
    const CampaignSpec spec = quickCampaign();
    RunCache cache = makeCache();
    const CampaignResult whole = Campaign(spec, &cache).run();
    const std::string path = (dir / "m.txt").string();
    writeManifest(whole, path);

    // Same shape, different instruction budget: every digest differs.
    CampaignSpec other = quickCampaign();
    other.options.instructions = 30000;
    RunCache otherCache = makeCache();
    EXPECT_THROW(mergeShards(other, {path}, otherCache), ConfigError);
}

TEST_F(CampaignTest, FailedRunsPropagateThroughManifests)
{
    CampaignSpec spec = quickCampaign();
    spec.schemes = {ControllerKind::Adaptive};
    spec.options.config.faults = FaultPlan::parseShared(
        "task-throw:bench=gzip,scheme=adaptive");

    RunCache cache = makeCache();
    const CampaignResult result = Campaign(spec, &cache).run();
    EXPECT_EQ(result.failed, 1u);
    // The failure is not stored: 4 runs, 3 stores.
    EXPECT_EQ(result.cacheStats.stores, 3u);

    const std::string path = (dir / "m.txt").string();
    writeManifest(result, path);
    RunCache mergeCache(
        CacheConfig{dir.string(), CacheMode::Read});
    const CampaignResult merged = mergeShards(spec, {path}, mergeCache);
    EXPECT_EQ(merged.failed, 1u);

    const auto rows = comparisonRows(spec, merged);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_TRUE(runSucceeded(rows[0].status));
    EXPECT_FALSE(runSucceeded(rows[1].status));
    EXPECT_EQ(rows[1].benchmark, "gzip");
}

TEST_F(CampaignTest, MultiSeedLabelsCarrySeedSuffix)
{
    CampaignSpec spec = quickCampaign();
    spec.benchmarks = {"adpcm_enc"};
    spec.schemes = {ControllerKind::Adaptive};
    spec.seeds = {1, 2};

    const CampaignResult result = Campaign(spec, nullptr).run();
    const auto rows = comparisonRows(spec, result);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].scheme, "adaptive#s1");
    EXPECT_EQ(rows[1].scheme, "adaptive#s2");
    EXPECT_NE(rows[0].result.wallTicks, rows[1].result.wallTicks);
}

} // namespace
} // namespace mcd
