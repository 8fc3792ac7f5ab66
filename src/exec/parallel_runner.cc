#include "exec/parallel_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <thread>
#include <utility>

#include "common/check.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "exec/exec_profile.hh"
#include "exec/pipelined_source.hh"
#include "fault/fault_plan.hh"
#include "obs/debug_flags.hh"

namespace mcd
{

namespace
{

using ProfClock = std::chrono::steady_clock; // lint:allow(no-wallclock)

double
msBetween(ProfClock::time_point start, ProfClock::time_point end)
{
    return std::chrono::duration<double, std::milli>(end - start).count();
}

/** Process-wide jobs override (0 = automatic). */
std::atomic<std::size_t> jobsOverride{0};

std::size_t
jobsFromEnvironment()
{
    const char *env = std::getenv("MCDSIM_JOBS");
    if (!env || *env == '\0')
        return 0;
    std::uint64_t value = 0;
    try {
        value = parseUint(env, "MCDSIM_JOBS",
                          std::numeric_limits<std::size_t>::max());
    } catch (const ConfigError &) {
    }
    if (value == 0)
        warn("MCDSIM_JOBS='%s' is not a positive integer; using "
             "hardware concurrency", env);
    return static_cast<std::size_t>(value);
}

} // namespace

std::size_t
configuredJobs()
{
    if (const std::size_t forced = jobsOverride.load())
        return forced;
    if (const std::size_t env = jobsFromEnvironment())
        return env;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
setConfiguredJobs(std::size_t jobs)
{
    jobsOverride.store(jobs);
}

RunOutcome
runTaskOutcome(const RunTask &task)
{
    const RunOptions &opts = *task.opts;
    const FaultPlan *plan = opts.config.faults.get();
    const std::string label = runLabel(task.kind, task.controller);

    RunOutcome out;
    try {
        // The exec-level fault site, evaluated against the run label
        // before the simulator is even built.
        if (plan && plan->taskThrows(task.benchmark, label))
            throw ExecError("task-throw", "injected task failure for " +
                                              task.benchmark + "/" + label);
        out.result = run(task.benchmark, task.kind, task.controller,
                         task.seed, opts);
        return out;
    } catch (const SimError &e) {
        out.error = e.what();
        out.status = (e.site() == "event-budget" || e.site() == "deadline")
                         ? RunStatus::TimedOut
                         : RunStatus::Failed;
    } catch (const std::exception &e) {
        out.error = e.what();
        out.status = RunStatus::Failed;
    } catch (...) {
        out.error = "unknown exception";
        out.status = RunStatus::Failed;
    }
    MCDSIM_TRACE(obs::DebugFlag::Exec, "task %s/%s failed: %s",
                 task.benchmark.c_str(), label.c_str(), out.error.c_str());
    return out;
}

ParallelRunner::ParallelRunner() : ParallelRunner(configuredJobs()) {}

ParallelRunner::ParallelRunner(std::size_t jobs)
    : jobCount(jobs > 0 ? jobs : 1)
{}

std::vector<RunOutcome>
ParallelRunner::runOutcomes(const std::vector<RunTask> &tasks) const
{
    for (const RunTask &task : tasks)
        MCDSIM_CHECK(task.opts != nullptr, "task without options");

    std::vector<RunOutcome> outcomes(tasks.size());
    const std::size_t workers = std::min(jobCount, tasks.size());
    // Queue wait is 0 when one worker runs everything; otherwise every
    // task counts as queued from fan-out start.
    const bool serial = workers <= 1;
    const auto fanOut = profile ? ProfClock::now() : ProfClock::time_point{};
    std::atomic<std::size_t> next{0};

    // Tasks go out in index order; outcome i lands in slot i whatever
    // the completion order. runTaskOutcome never throws.
    const auto work = [&] {
        const WorkerThread counted;
        for (std::size_t i = next.fetch_add(1); i < tasks.size();
             i = next.fetch_add(1)) {
            MCDSIM_TRACE(obs::DebugFlag::Exec, "task %zu: %s", i,
                         tasks[i].benchmark.c_str());
            if (!profile) {
                outcomes[i] = runTaskOutcome(tasks[i]);
                continue;
            }
            const auto started = ProfClock::now();
            outcomes[i] = runTaskOutcome(tasks[i]);
            profile->recordTask(serial ? 0.0 : msBetween(fanOut, started),
                                msBetween(started, ProfClock::now()));
        }
    };

    // One worker runs on the calling thread. Several run on their own
    // threads, which join at scope exit, and the caller only waits:
    // a caller that ran a share of the simulations kept their heap
    // churn in its own malloc arena, which slowed its later
    // allocations (perfbench campaign-cold setup_s, timed on the
    // calling thread between passes, read 12-22% higher). The
    // reservation counts every worker before the first starts, so no
    // early run claims a producer core a later worker needs.
    const FanOutReservation reservation(workers);
    if (workers <= 1) {
        work();
    } else {
        std::vector<std::jthread> threads;
        for (std::size_t w = 0; w < workers; ++w)
            threads.emplace_back(work);
    }
    return outcomes;
}

} // namespace mcd
