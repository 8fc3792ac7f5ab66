/**
 * @file
 * Acceptance tests for run-level graceful degradation: a fault plan
 * poisons exactly the runs it targets, the rest of the suite
 * completes, and outcomes are byte-identical across --jobs settings.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "core/report.hh"
#include "exec/parallel_runner.hh"
#include "fault/fault_plan.hh"

namespace mcd
{
namespace
{

RunOptions
smallOpts(std::uint64_t insts = 20000)
{
    RunOptions opts;
    opts.instructions = insts;
    opts.seed = 5;
    return opts;
}

/** An adaptive run on gzip, with its own copy of @p opts. */
RunTask
gzipTask(const RunOptions &opts)
{
    return {"gzip", RunKind::Scheme, ControllerKind::Adaptive, opts.seed,
            std::make_shared<const RunOptions>(opts)};
}

std::vector<RunTask>
twoBenchmarkMatrix(const RunOptions &opts)
{
    const auto shared = std::make_shared<const RunOptions>(opts);
    std::vector<RunTask> tasks;
    for (const char *bench : {"gzip", "epic_decode"}) {
        tasks.push_back({bench, RunKind::McdBaseline, ControllerKind::Fixed,
                         opts.seed, shared});
        tasks.push_back({bench, RunKind::Scheme, ControllerKind::Adaptive,
                         opts.seed, shared});
        tasks.push_back({bench, RunKind::Scheme, ControllerKind::Pid,
                         opts.seed, shared});
    }
    return tasks;
}

/** The comparison table of @p kinds on gzip and epic_decode. */
std::vector<ComparisonRow>
compareSchemes(std::vector<ControllerKind> kinds, const RunOptions &opts)
{
    CampaignSpec cs;
    cs.benchmarks = {"gzip", "epic_decode"};
    cs.schemes = std::move(kinds);
    cs.options = opts;
    return comparisonRows(cs, Campaign(cs).run());
}

TEST(RunOutcomes, InjectedTaskFailurePoisonsOnlyItsRow)
{
    // The acceptance scenario: one guaranteed task failure inside a
    // multi-benchmark comparison. The suite must complete, the failed
    // row must carry status + error context, and every other row
    // stays ok.
    RunOptions opts = smallOpts();
    opts.config.faults = FaultPlan::parseShared(
        "task-throw:bench=gzip,scheme=adaptive");

    const std::vector<ComparisonRow> rows =
        compareSchemes({ControllerKind::Adaptive, ControllerKind::Pid}, opts);
    ASSERT_EQ(rows.size(), 4u);

    std::size_t failed = 0;
    for (const auto &row : rows) {
        if (row.benchmark == "gzip" && row.scheme == "adaptive") {
            EXPECT_EQ(row.status, RunStatus::Failed);
            EXPECT_NE(row.error.find("task-throw"), std::string::npos);
            EXPECT_NE(row.error.find("gzip"), std::string::npos);
            ++failed;
        } else {
            EXPECT_EQ(row.status, RunStatus::Ok) << row.benchmark << "/"
                                                 << row.scheme;
            EXPECT_TRUE(row.error.empty());
            EXPECT_GT(row.result.wallTicks, 0u);
        }
    }
    EXPECT_EQ(failed, 1u);

    // The CSV keeps the partial table parseable.
    std::ostringstream os;
    writeComparisonCsv(os, rows);
    EXPECT_NE(os.str().find("gzip,adaptive,failed,1,,,,,,"),
              std::string::npos);
}

TEST(RunOutcomes, ByteIdenticalAcrossJobCounts)
{
    // Same seed + same plan must produce identical outcomes at any
    // parallelism — fault streams are per-run, never shared.
    RunOptions opts = smallOpts();
    opts.config.faults = FaultPlan::parseShared(
        "sensor-noise:amp=2,rate=0.5;drop-update:rate=0.25;"
        "task-throw:bench=gzip,scheme=pid-fixed-interval");
    const std::vector<RunTask> tasks = twoBenchmarkMatrix(opts);

    const auto serial = ParallelRunner(1).runOutcomes(tasks);
    const auto parallel = ParallelRunner(8).runOutcomes(tasks);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].status, parallel[i].status) << i;
        EXPECT_EQ(serial[i].error, parallel[i].error) << i;
        if (serial[i].ok()) {
            EXPECT_EQ(serial[i].result.wallTicks,
                      parallel[i].result.wallTicks)
                << i;
            EXPECT_DOUBLE_EQ(serial[i].result.energy,
                             parallel[i].result.energy)
                << i;
            EXPECT_EQ(resultCsvRow(serial[i].result),
                      resultCsvRow(parallel[i].result))
                << i;
        }
    }
}

TEST(RunOutcomes, NoPlanAndNonMatchingPlanAreByteIdentical)
{
    // Zero overhead when off: a null plan and a plan whose every spec
    // filters out must yield exactly the plain run() result.
    const RunOptions plain = smallOpts();
    const auto task = gzipTask(plain);
    const SimResult direct =
        run(schemeSpec("gzip", ControllerKind::Adaptive, plain));

    const RunOutcome nullPlan = runTaskOutcome(task);
    EXPECT_EQ(nullPlan.status, RunStatus::Ok);

    RunOptions filtered = smallOpts();
    filtered.config.faults = FaultPlan::parseShared(
        "sensor-noise:amp=5,bench=no-such-benchmark");
    const RunOutcome filteredOut = runTaskOutcome(gzipTask(filtered));
    EXPECT_EQ(filteredOut.status, RunStatus::Ok);

    EXPECT_EQ(resultCsvRow(direct), resultCsvRow(nullPlan.result));
    EXPECT_EQ(resultCsvRow(direct), resultCsvRow(filteredOut.result));
}

TEST(RunOutcomes, SimFaultsChangeResultsDeterministically)
{
    RunOptions noisy = smallOpts();
    noisy.config.faults =
        FaultPlan::parseShared("sensor-noise:amp=4,rate=0.8");
    const auto task = gzipTask(noisy);
    const RunOutcome a = runTaskOutcome(task);
    const RunOutcome b = runTaskOutcome(task);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(resultCsvRow(a.result), resultCsvRow(b.result));

    const RunOutcome clean = runTaskOutcome(gzipTask(smallOpts()));
    // Noise on the controller's sensor must actually change the run.
    EXPECT_NE(resultCsvRow(a.result), resultCsvRow(clean.result));
}

TEST(RunOutcomes, EverySimFaultSiteFires)
{
    // A site the simulator never reaches would parse, run and change
    // nothing. Every simulation-level site needs an entry here, and
    // one short run under it must count at least one injection.
    const std::map<std::string, std::string> specs = {
        {"sensor-noise", "sensor-noise:amp=2"},
        {"drop-update", "drop-update"},
        {"delay-update", "delay-update:samples=2"},
        {"clamp-vf", "clamp-vf:lo=0.5,hi=0.8"},
    };
    for (std::size_t i = 0; i < numFaultSites; ++i) {
        const std::string site = faultSiteName(static_cast<FaultSite>(i));
        if (site == "task-throw")
            continue; // exec-level: fired by the runner, not the model
        const auto spec = specs.find(site);
        if (spec == specs.end()) {
            ADD_FAILURE() << "no spec for fault site '" << site << "'";
            continue;
        }
        RunOptions opts = smallOpts(4000);
        opts.collectStats = true;
        opts.config.faults = FaultPlan::parseShared(spec->second);
        const SimResult r =
            run(schemeSpec("gzip", ControllerKind::Adaptive, opts));

        std::string key = "fault." + site + "_injected ";
        std::replace(key.begin(), key.end(), '-', '_');
        const auto pos = r.statsText.find(key);
        ASSERT_NE(pos, std::string::npos) << "stats dump missing " << key;
        EXPECT_GT(std::stoull(r.statsText.substr(pos + key.size())), 0u)
            << spec->second;
    }
}

TEST(RunOutcomes, EventBudgetMapsToTimedOut)
{
    RunOptions opts = smallOpts();
    opts.config.eventBudget = 500; // far too small to finish
    const RunOutcome out = runTaskOutcome(gzipTask(opts));
    EXPECT_EQ(out.status, RunStatus::TimedOut);
    EXPECT_NE(out.error.find("event budget"), std::string::npos);
    EXPECT_FALSE(out.ok());
}

TEST(RunOutcomes, RunStatusNamesAreStable)
{
    EXPECT_STREQ(runStatusName(RunStatus::Ok), "ok");
    EXPECT_STREQ(runStatusName(RunStatus::Failed), "failed");
    EXPECT_STREQ(runStatusName(RunStatus::TimedOut), "timed_out");
    EXPECT_TRUE(runSucceeded(RunStatus::Ok));
    EXPECT_FALSE(runSucceeded(RunStatus::Failed));
    EXPECT_FALSE(runSucceeded(RunStatus::TimedOut));
}

TEST(RunOutcomes, BaselineFailurePropagatesToSchemeRows)
{
    // When the MCD baseline of a benchmark dies, its scheme rows
    // cannot be normalized: they inherit the failure with context.
    RunOptions opts = smallOpts();
    opts.config.faults = FaultPlan::parseShared(
        "task-throw:bench=gzip,scheme=mcd-baseline");
    const std::vector<ComparisonRow> rows =
        compareSchemes({ControllerKind::Adaptive}, opts);
    ASSERT_EQ(rows.size(), 2u);
    for (const auto &row : rows) {
        if (row.benchmark == "gzip") {
            EXPECT_EQ(row.status, RunStatus::Failed);
            EXPECT_NE(row.error.find("mcd-baseline"), std::string::npos);
        } else {
            EXPECT_EQ(row.status, RunStatus::Ok);
        }
    }
}

} // namespace
} // namespace mcd
