/**
 * @file Tests for ParallelRunner, its ExecProfile and the jobs
 * configuration knob.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.hh"
#include "dvfs/fixed_controller.hh"
#include "exec/exec_profile.hh"
#include "exec/parallel_runner.hh"

namespace mcd
{
namespace
{

RunOptions
quickOpts()
{
    RunOptions opts;
    opts.instructions = 60000;
    return opts;
}

/** Full serialized report bytes for one result. */
std::string
serialize(const SimResult &r)
{
    std::ostringstream os;
    os << resultJson(r) << '\n' << resultCsvHeader() << '\n'
       << resultCsvRow(r) << '\n';
    return os.str();
}

/** A mixed task list (every run kind), sharing one options copy. */
std::vector<RunTask>
mixedTasks()
{
    const RunOptions opts = quickOpts();
    const auto shared = std::make_shared<const RunOptions>(opts);
    std::vector<RunTask> tasks;
    for (const RunSpec &s :
         {mcdBaselineSpec("gzip", opts),
          schemeSpec("gzip", ControllerKind::Adaptive, opts),
          schemeSpec("gzip", ControllerKind::Pid, opts),
          syncBaselineSpec("epic_decode", opts),
          schemeSpec("epic_decode", ControllerKind::AttackDecay, opts),
          schemeSpec("adpcm_enc", ControllerKind::Adaptive, opts)})
        tasks.push_back({s.benchmark, s.kind, s.controller, s.seed, shared});
    return tasks;
}

/** The results of a fan-out that must fully succeed. */
std::vector<SimResult>
results(const std::vector<RunOutcome> &outcomes)
{
    std::vector<SimResult> out;
    for (const auto &o : outcomes) {
        EXPECT_EQ(o.status, RunStatus::Ok) << o.error;
        out.push_back(o.result);
    }
    return out;
}

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

TEST(ParallelRunner, SingleJobMatchesDirectSerialCalls)
{
    const auto tasks = mixedTasks();

    std::vector<SimResult> direct;
    for (const auto &t : tasks)
        direct.push_back(
            run(t.benchmark, t.kind, t.controller, t.seed, *t.opts));

    const auto pooled = results(ParallelRunner(1).runOutcomes(tasks));
    ASSERT_EQ(pooled.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(serialize(pooled[i]), serialize(direct[i]))
            << "task " << i;
}

TEST(ParallelRunner, ResultsComeBackInSubmissionOrder)
{
    // Oversubscribe heavily so completion order scrambles relative to
    // submission order whenever the host allows it.
    const auto tasks = mixedTasks();

    const auto serial = results(ParallelRunner(1).runOutcomes(tasks));
    const auto parallel = results(ParallelRunner(8).runOutcomes(tasks));
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serialize(parallel[i]), serialize(serial[i]))
            << "task " << i;
}

TEST(ParallelRunner, TaskSeedOverridesSharedOptions)
{
    RunTask a{"mpeg2_dec", RunKind::Scheme, ControllerKind::Adaptive, 1,
              std::make_shared<const RunOptions>(quickOpts())};
    RunTask b = a;
    b.seed = a.seed + 41;
    const auto out = results(ParallelRunner(2).runOutcomes({a, b}));
    EXPECT_NE(serialize(out[0]), serialize(out[1]))
        << "per-task seed had no effect";
}

TEST(ParallelRunner, EveryTaskRunsExactlyOnce)
{
    // Far more tasks than workers, each with its own options whose
    // controller factory counts its calls: a task run twice, or not
    // at all, shows up as a count other than one per controlled
    // domain.
    constexpr std::size_t n = 48;
    std::vector<std::atomic<int>> calls(n);
    std::vector<RunTask> tasks;
    for (std::size_t i = 0; i < n; ++i) {
        RunOptions opts;
        opts.instructions = 3000;
        opts.config.customController =
            [&calls, i](std::size_t, const VfCurve &) {
                ++calls[i];
                return std::make_unique<FixedController>();
            };
        tasks.push_back({i % 2 ? "gzip" : "mcf", RunKind::Scheme,
                         ControllerKind::Custom, 1 + i,
                         std::make_shared<const RunOptions>(opts)});
    }

    const auto parallel = results(ParallelRunner(8).runOutcomes(tasks));
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(calls[i].exchange(0), 3) << "task " << i;

    const auto serial = results(ParallelRunner(1).runOutcomes(tasks));
    ASSERT_EQ(parallel.size(), n);
    ASSERT_EQ(serial.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(calls[i].load(), 3) << "task " << i;
        EXPECT_EQ(serialize(parallel[i]), serialize(serial[i]))
            << "task " << i;
    }
}

TEST(ParallelRunner, ZeroJobsCountsAsOne)
{
    EXPECT_EQ(ParallelRunner(0).jobs(), 1u);
}

TEST(ExecProfile, RecordsOneEntryPerTask)
{
    const auto tasks = mixedTasks();
    for (const std::size_t jobs : {1u, 4u}) {
        ExecProfile profile;
        ParallelRunner runner(jobs);
        runner.setProfile(&profile);
        results(runner.runOutcomes(tasks));
        EXPECT_EQ(profile.execSummary().count(), tasks.size())
            << "jobs " << jobs;
        EXPECT_EQ(profile.waitSummary().count(), tasks.size())
            << "jobs " << jobs;
        if (jobs == 1) {
            EXPECT_EQ(profile.waitSummary().max(), 0.0);
        }
    }

    // One task never queues, whatever the jobs count.
    ExecProfile single;
    ParallelRunner runner(4);
    runner.setProfile(&single);
    results(runner.runOutcomes({tasks.front()}));
    EXPECT_EQ(single.waitSummary().count(), 1u);
    EXPECT_EQ(single.waitSummary().max(), 0.0);
}

TEST(ConfiguredJobs, OverrideBeatsEnvironment)
{
    ScopedEnv env("MCDSIM_JOBS", "2");
    EXPECT_EQ(configuredJobs(), 2u);
    setConfiguredJobs(5);
    EXPECT_EQ(configuredJobs(), 5u);
    EXPECT_EQ(ParallelRunner().jobs(), 5u);
    setConfiguredJobs(0); // restore automatic
    EXPECT_EQ(configuredJobs(), 2u);
}

TEST(ConfiguredJobs, MalformedEnvironmentFallsBackToHardware)
{
    setConfiguredJobs(0);
    std::size_t hw;
    {
        ScopedEnv env("MCDSIM_JOBS", "");
        hw = configuredJobs();
    }
    EXPECT_GE(hw, 1u);
    for (const char *bad : {"not-a-number", "0", "12x", "-3", " 4"}) {
        ScopedEnv env("MCDSIM_JOBS", bad);
        EXPECT_EQ(configuredJobs(), hw) << "MCDSIM_JOBS='" << bad << "'";
    }
}

} // namespace
} // namespace mcd
