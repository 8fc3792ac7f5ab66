/**
 * @file
 * Parallel-vs-serial determinism: the execution layer promises that a
 * suite executed through the worker pool is byte-identical to the
 * same suite executed serially. This runs the same spec list through
 * Campaign (the harnesses' launch path) under MCDSIM_JOBS=1 and
 * MCDSIM_JOBS=8 (the environment path the harness knob uses) and
 * compares the fully serialized reports.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "core/report.hh"
#include "exec/parallel_runner.hh"

namespace mcd
{
namespace
{

/** RAII guard for an environment variable. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : varName(name)
    {
        const char *old = std::getenv(name);
        hadOld = old != nullptr;
        if (hadOld)
            oldValue = old;
        ::setenv(name, value, 1);
    }

    ~ScopedEnv()
    {
        if (hadOld)
            ::setenv(varName, oldValue.c_str(), 1);
        else
            ::unsetenv(varName);
    }

  private:
    const char *varName;
    std::string oldValue;
    bool hadOld = false;
};

/** Results of @p specs through Campaign, all of which must succeed. */
std::vector<SimResult>
runSpecs(std::vector<RunSpec> specs)
{
    const CampaignResult result = Campaign(std::move(specs)).run();
    EXPECT_EQ(result.failed, 0u);
    std::vector<SimResult> out;
    for (const auto &r : result.runs)
        out.push_back(r.outcome.result);
    return out;
}

/** Serialized bytes of one suite sweep under the current MCDSIM_JOBS. */
std::string
sweepBytes()
{
    RunOptions opts;
    opts.instructions = 80000;
    opts.recordTraces = true; // traces widen the surface a race could hit

    std::vector<RunSpec> specs;
    for (const char *name : {"gzip", "epic_decode", "adpcm_enc"}) {
        specs.push_back(mcdBaselineSpec(name, opts));
        specs.push_back(schemeSpec(name, ControllerKind::Adaptive, opts));
        specs.push_back(schemeSpec(name, ControllerKind::Pid, opts));
    }
    // Per-run seeds exercise the seed-sweep path as well.
    for (std::size_t i = 0; i < specs.size(); ++i)
        specs[i].seed = 1 + i % 3;

    const std::vector<SimResult> results = runSpecs(std::move(specs));

    std::ostringstream os;
    os << resultCsvHeader() << '\n';
    for (const auto &r : results)
        os << resultJson(r) << '\n' << resultCsvRow(r) << '\n';
    return os.str();
}

/** Concatenated stats/trace artifacts under the current MCDSIM_JOBS. */
std::string
observabilityBytes()
{
    RunOptions opts;
    opts.instructions = 40000;
    opts.collectStats = true;
    opts.trace.enabled = true;

    std::vector<RunSpec> specs;
    for (const char *name : {"gzip", "epic_decode"}) {
        specs.push_back(mcdBaselineSpec(name, opts));
        specs.push_back(schemeSpec(name, ControllerKind::Adaptive, opts));
    }

    const std::vector<SimResult> results = runSpecs(std::move(specs));

    std::string bytes;
    for (const auto &r : results) {
        bytes += r.statsText;
        bytes += r.statsJson;
        bytes += r.traceJson;
    }
    return bytes;
}

/** Serialized comparison table under the current MCDSIM_JOBS. */
std::string
comparisonBytes()
{
    CampaignSpec cs;
    cs.benchmarks = {"gzip", "swim"};
    cs.schemes = {ControllerKind::Adaptive, ControllerKind::AttackDecay};
    cs.options.instructions = 60000;
    const auto rows = comparisonRows(cs, Campaign(cs).run());
    std::ostringstream os;
    writeComparisonCsv(os, rows);
    return os.str();
}

TEST(ParallelDeterminism, JobsOneVsEightByteIdentical)
{
    setConfiguredJobs(0); // make the environment variable decisive
    std::string serial, parallel;
    {
        ScopedEnv env("MCDSIM_JOBS", "1");
        ASSERT_EQ(ParallelRunner().jobs(), 1u);
        serial = sweepBytes();
    }
    {
        ScopedEnv env("MCDSIM_JOBS", "8");
        ASSERT_EQ(ParallelRunner().jobs(), 8u);
        parallel = sweepBytes();
    }
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel)
        << "a suite executed with 8 workers is not byte-identical to "
           "the serial execution";
}

TEST(ParallelDeterminism, StatsAndTracesJobsOneVsEightByteIdentical)
{
    setConfiguredJobs(0);
    std::string serial, parallel;
    {
        ScopedEnv env("MCDSIM_JOBS", "1");
        serial = observabilityBytes();
    }
    {
        ScopedEnv env("MCDSIM_JOBS", "8");
        parallel = observabilityBytes();
    }
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel)
        << "stats/trace artifacts differ between 1 and 8 workers";
}

TEST(ParallelDeterminism, ComparisonTableJobsOneVsEightByteIdentical)
{
    setConfiguredJobs(0);
    std::string serial, parallel;
    {
        ScopedEnv env("MCDSIM_JOBS", "1");
        serial = comparisonBytes();
    }
    {
        ScopedEnv env("MCDSIM_JOBS", "8");
        parallel = comparisonBytes();
    }
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

} // namespace
} // namespace mcd
