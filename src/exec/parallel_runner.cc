#include "exec/parallel_runner.hh"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
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
    const std::string label = runLabel(task.kind, task.controller);

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

            // The common path runs on the caller's immutable options;
            // only a retry or a wall deadline needs a private copy
            // (fresh attempt number for the fault streams, and a
            // per-run cancel callback).
            std::optional<RunOptions> private_opts;
            if (attempt > 1 || opts.wallDeadlineMs > 0) {
                private_opts.emplace(opts);
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
            }
            out.result = run(task.benchmark, task.kind, task.controller,
                             task.seed, private_opts ? *private_opts : opts);

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

} // namespace mcd
