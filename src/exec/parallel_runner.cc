#include "exec/parallel_runner.hh"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>
#include <utility>

#include "common/check.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "exec/exec_profile.hh"
#include "exec/worker_pool.hh"
#include "fault/fault_plan.hh"
#include "obs/debug_flags.hh"

namespace mcd
{

namespace
{

using ProfClock = std::chrono::steady_clock; // lint:allow(no-wallclock)

/** Times one named phase into a profile (null profile = no clock). */
class PhaseTimer
{
  public:
    PhaseTimer(ExecProfile *profile, const char *phase_name)
        : prof(profile), name(phase_name)
    {
        if (prof)
            start = ProfClock::now();
    }

    ~PhaseTimer()
    {
        if (prof) {
            prof->recordPhase(
                name, std::chrono::duration<double, std::milli>(
                          ProfClock::now() - start)
                          .count());
        }
    }

  private:
    ExecProfile *prof;
    const char *name;
    ProfClock::time_point start{};
};

/** Process-wide jobs override (0 = automatic). */
std::atomic<std::size_t> jobsOverride{0};

std::size_t
jobsFromEnvironment()
{
    const char *env = std::getenv("MCDSIM_JOBS");
    if (!env || *env == '\0')
        return 0;
    std::size_t value = 0;
    const char *end = env + std::strlen(env);
    const auto [ptr, ec] = std::from_chars(env, end, value);
    if (ec != std::errc() || ptr != end || value == 0) {
        warn("MCDSIM_JOBS='%s' is not a positive integer; using "
             "hardware concurrency", env);
        return 0;
    }
    return value;
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

RunTask
schemeTask(std::string benchmark, ControllerKind controller,
           std::shared_ptr<const RunOptions> opts)
{
    MCDSIM_CHECK(opts != nullptr, "task without options");
    RunTask t;
    t.benchmark = std::move(benchmark);
    t.kind = RunTaskKind::Scheme;
    t.controller = controller;
    t.seed = opts->seed;
    t.opts = std::move(opts);
    return t;
}

RunTask
mcdBaselineTask(std::string benchmark,
                std::shared_ptr<const RunOptions> opts)
{
    RunTask t = schemeTask(std::move(benchmark), ControllerKind::Fixed,
                           std::move(opts));
    t.kind = RunTaskKind::McdBaseline;
    return t;
}

RunTask
syncBaselineTask(std::string benchmark,
                 std::shared_ptr<const RunOptions> opts)
{
    RunTask t = schemeTask(std::move(benchmark), ControllerKind::Fixed,
                           std::move(opts));
    t.kind = RunTaskKind::SyncBaseline;
    return t;
}

std::string
runTaskLabel(const RunTask &task)
{
    switch (task.kind) {
      case RunTaskKind::Scheme:
        return controllerKindName(task.controller);
      case RunTaskKind::McdBaseline:
        return "mcd-baseline";
      case RunTaskKind::SyncBaseline:
        return "sync-baseline";
    }
    panic("unknown task kind %d", static_cast<int>(task.kind));
}

RunSpec
taskSpec(const RunTask &task)
{
    MCDSIM_CHECK(task.opts != nullptr, "task without options");
    RunSpec spec;
    spec.benchmark = task.benchmark;
    spec.kind = task.kind;
    spec.controller = task.controller;
    spec.seed = task.seed;
    spec.options = *task.opts;
    return spec;
}

SimResult
runTask(const RunTask &task)
{
    MCDSIM_CHECK(task.opts != nullptr, "task without options");
    return run(task.benchmark, task.kind, task.controller, task.seed,
               *task.opts);
}

namespace
{

/**
 * Deterministic busy loop for the task-slow fault: burns a fixed
 * amount of work independent of compiler and host, so the injected
 * delay scales with spin count everywhere.
 */
void
spinFor(std::uint64_t iterations)
{
    volatile std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < iterations; ++i)
        acc = acc + i;
    (void)acc;
}

} // namespace

RunOutcome
runTaskOutcome(const RunTask &task)
{
    MCDSIM_CHECK(task.opts != nullptr, "task without options");
    const RunOptions &opts = *task.opts;
    const std::uint32_t max_attempts =
        std::max<std::uint32_t>(1, opts.maxAttempts);
    const FaultPlan *plan = opts.config.faults.get();
    const std::string label = runTaskLabel(task);

    RunOutcome out;
    out.attempts = 0;
    for (std::uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
        ++out.attempts;
        try {
            // Exec-level fault sites, evaluated against the run label
            // before the simulator is even built.
            if (plan) {
                if (const FaultSpec *slow = plan->taskFault(
                        FaultSite::TaskSlow, task.benchmark, label,
                        attempt)) {
                    spinFor(slow->spin);
                }
                if (plan->taskFault(FaultSite::TaskThrow, task.benchmark,
                                    label, attempt)) {
                    throw ExecError("task-throw",
                                    "injected task failure for " +
                                        task.benchmark + "/" + label +
                                        " attempt " +
                                        std::to_string(attempt));
                }
            }

            // The common path shares the caller's immutable options;
            // only a retry or a wall deadline needs a private copy
            // (fresh attempt number for the fault streams, and a
            // per-run cancel callback).
            if (attempt == 1 && opts.wallDeadlineMs == 0) {
                out.result = runTask(task);
            } else {
                auto private_opts = std::make_shared<RunOptions>(opts);
                private_opts->config.faultAttempt = attempt;
                if (opts.wallDeadlineMs > 0) {
                    const auto deadline =
                        ProfClock::now() + // lint:allow(no-wallclock)
                        std::chrono::milliseconds(opts.wallDeadlineMs);
                    private_opts->config.cancelCheck = [deadline] {
                        return ProfClock::now() >= // lint:allow(no-wallclock)
                               deadline;
                    };
                }
                RunTask retry = task;
                retry.opts = std::move(private_opts);
                out.result = runTask(retry);
            }

            out.status =
                attempt > 1 ? RunStatus::RetriedOk : RunStatus::Ok;
            out.error.clear();
            return out;
        } catch (const SimError &e) {
            out.error = e.what();
            out.status = (e.site() == "event-budget" ||
                          e.site() == "deadline")
                             ? RunStatus::TimedOut
                             : RunStatus::Failed;
        } catch (const std::exception &e) {
            out.error = e.what();
            out.status = RunStatus::Failed;
        } catch (...) {
            out.error = "unknown exception";
            out.status = RunStatus::Failed;
        }
        MCDSIM_TRACE(obs::DebugFlag::Exec,
                     "task %s/%s attempt %u failed: %s",
                     task.benchmark.c_str(), label.c_str(), attempt,
                     out.error.c_str());
    }
    out.result = SimResult{};
    return out;
}

ParallelRunner::ParallelRunner() : ParallelRunner(configuredJobs()) {}

ParallelRunner::ParallelRunner(std::size_t jobs)
    : jobCount(jobs > 0 ? jobs : 1)
{}

std::vector<SimResult>
ParallelRunner::run(const std::vector<RunTask> &tasks) const
{
    std::vector<SimResult> results(tasks.size());

    if (jobCount == 1 || tasks.size() <= 1) {
        // Exact old serial path: same call sequence, same thread, no
        // pool. Exceptions propagate from the failing task directly.
        PhaseTimer run_phase(profile, "run");
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            MCDSIM_TRACE(obs::DebugFlag::Exec, "serial task %zu: %s", i,
                         tasks[i].benchmark.c_str());
            if (profile) {
                const auto started = ProfClock::now();
                results[i] = runTask(tasks[i]);
                profile->recordTask(
                    0.0, std::chrono::duration<double, std::milli>(
                             ProfClock::now() - started)
                             .count());
            } else {
                results[i] = runTask(tasks[i]);
            }
        }
        return results;
    }

    // One error slot per task so the rethrow below is deterministic
    // (lowest task index wins) no matter which worker failed first.
    std::vector<std::exception_ptr> errors(tasks.size());
    {
        PhaseTimer run_phase(profile, "run");
        WorkerPool pool(std::min(jobCount, tasks.size()), profile);
        {
            PhaseTimer dispatch_phase(profile, "dispatch");
            for (std::size_t i = 0; i < tasks.size(); ++i) {
                MCDSIM_TRACE(obs::DebugFlag::Exec, "dispatch task %zu: %s",
                             i, tasks[i].benchmark.c_str());
                pool.submit([&tasks, &results, &errors, i] {
                    try {
                        results[i] = runTask(tasks[i]);
                    } catch (...) {
                        errors[i] = std::current_exception();
                    }
                });
            }
        }
        pool.waitIdle();
    }
    for (auto &err : errors) {
        if (err)
            std::rethrow_exception(err);
    }
    return results;
}

std::vector<RunOutcome>
ParallelRunner::runOutcomes(const std::vector<RunTask> &tasks) const
{
    std::vector<RunOutcome> outcomes(tasks.size());

    if (jobCount == 1 || tasks.size() <= 1) {
        PhaseTimer run_phase(profile, "run");
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            MCDSIM_TRACE(obs::DebugFlag::Exec, "serial task %zu: %s", i,
                         tasks[i].benchmark.c_str());
            if (profile) {
                const auto started = ProfClock::now();
                outcomes[i] = runTaskOutcome(tasks[i]);
                profile->recordTask(
                    0.0, std::chrono::duration<double, std::milli>(
                             ProfClock::now() - started)
                             .count());
            } else {
                outcomes[i] = runTaskOutcome(tasks[i]);
            }
        }
        return outcomes;
    }

    // No per-task error slots here: runTaskOutcome never throws, so
    // the pool's leaked-exception machinery stays quiet and outcomes
    // land at their task index regardless of completion order.
    PhaseTimer run_phase(profile, "run");
    WorkerPool pool(std::min(jobCount, tasks.size()), profile);
    {
        PhaseTimer dispatch_phase(profile, "dispatch");
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            MCDSIM_TRACE(obs::DebugFlag::Exec, "dispatch task %zu: %s", i,
                         tasks[i].benchmark.c_str());
            pool.submit([&tasks, &outcomes, i] {
                outcomes[i] = runTaskOutcome(tasks[i]);
            });
        }
    }
    pool.waitIdle();
    return outcomes;
}

std::vector<ComparisonRow>
runComparison(const std::vector<std::string> &names,
              const std::vector<ControllerKind> &kinds,
              const RunOptions &opts)
{
    // One immutable RunOptions copy serves every task; the old serial
    // loop re-copied the whole SimConfig into each runner call.
    const auto shared = shareOptions(opts);
    std::vector<RunTask> tasks;
    tasks.reserve(names.size() * (kinds.size() + 1));
    for (const auto &name : names) {
        tasks.push_back(mcdBaselineTask(name, shared));
        for (ControllerKind kind : kinds)
            tasks.push_back(schemeTask(name, kind, shared));
    }

    std::vector<RunOutcome> outcomes = ParallelRunner().runOutcomes(tasks);

    // Graceful degradation: a failed scheme run fails only its own
    // row; a failed baseline fails every row of that benchmark (there
    // is nothing to normalize against), each carrying the baseline's
    // error context. All other rows are emitted normally.
    std::vector<ComparisonRow> rows;
    rows.reserve(names.size() * kinds.size());
    std::size_t idx = 0;
    for (const auto &name : names) {
        RunOutcome &base = outcomes[idx++];
        for (ControllerKind kind : kinds) {
            RunOutcome &run = outcomes[idx++];
            ComparisonRow row;
            row.benchmark = name;
            row.scheme = controllerKindName(kind);
            row.status = run.status;
            row.attempts = run.attempts;
            row.error = run.error;
            row.result = std::move(run.result);
            if (run.ok() && base.ok()) {
                row.vsBaseline = compare(row.result, base.result);
            } else if (run.ok()) {
                row.status = base.status;
                row.attempts = base.attempts;
                row.error = "mcd-baseline: " + base.error;
            }
            rows.push_back(std::move(row));
        }
    }
    return rows;
}

std::size_t
failedRowCount(const std::vector<ComparisonRow> &rows)
{
    return static_cast<std::size_t>(
        std::count_if(rows.begin(), rows.end(), [](const ComparisonRow &r) {
            return !runSucceeded(r.status);
        }));
}

} // namespace mcd
