/**
 * @file
 * Parallel experiment execution.
 *
 * Every experiment in the paper's evaluation is a cross product of
 * (benchmark, scheme, seed, config) runs, and each run is a pure
 * function of its inputs (tests/integration/test_determinism.cc
 * enforces this). That makes the whole suite embarrassingly parallel:
 * ParallelRunner runs a RunTask list on at most `jobs` threads, each
 * task in its own McdProcessor, and hands the outcomes back in task
 * order — so any table built from them is byte-identical to a serial
 * run, regardless of completion order. Harnesses do not call it
 * directly: they describe RunSpecs and run them through Campaign
 * (campaign/campaign.hh), which serves cache hits and hands the
 * misses to runOutcomes().
 *
 * Concurrency knob, in precedence order:
 *   1. setConfiguredJobs() — e.g. from a harness --jobs flag;
 *   2. the MCDSIM_JOBS environment variable;
 *   3. std::thread::hardware_concurrency().
 *
 * Threads exist only in src/exec/: these workers, and the stream
 * producers of exec/pipelined_source.hh that run() starts when a core
 * is free. A fan-out reserves its full width against that core budget
 * before its workers start, so its runs pipeline only when the pool
 * leaves cores idle. Each simulation still runs on one thread
 * (tools/lint/determinism_lint.py bans threading primitives outside
 * src/exec/).
 */

#ifndef MCDSIM_EXEC_PARALLEL_RUNNER_HH
#define MCDSIM_EXEC_PARALLEL_RUNNER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/run_spec.hh"
#include "core/runner.hh"
#include "exec/run.hh"

namespace mcd
{

class ExecProfile;

/**
 * One independent simulation run, described piecewise so a fan-out
 * can point every task at options it already holds (Campaign points
 * each task at its own RunSpec's options; nothing is copied). The
 * task seed overrides RunOptions::seed.
 */
struct RunTask
{
    std::string benchmark;
    RunKind kind = RunKind::Scheme;
    ControllerKind controller = ControllerKind::Adaptive;
    std::uint64_t seed = 1;
    std::shared_ptr<const RunOptions> opts;
};

/**
 * One task's outcome under graceful degradation: status and, for a
 * run that did not complete, its error text. result is meaningful
 * only when runSucceeded(status).
 */
struct RunOutcome
{
    RunStatus status = RunStatus::Ok;
    std::string error;
    SimResult result;

    bool ok() const { return runSucceeded(status); }
};

/**
 * Execute one task, once, in this thread with isolation: the
 * exec-level task-throw site of the options' fault plan, and every
 * exception mapped to a RunOutcome instead of propagating. SimError
 * at sites "event-budget" / "deadline" becomes RunStatus::TimedOut.
 * task.opts must be non-null (runOutcomes() checks every task).
 */
RunOutcome runTaskOutcome(const RunTask &task);

/**
 * Resolved worker count: setConfiguredJobs override, else
 * MCDSIM_JOBS, else hardware concurrency (minimum 1). A malformed
 * MCDSIM_JOBS value warns to stderr and is ignored.
 */
std::size_t configuredJobs();

/** Override configuredJobs() process-wide; 0 restores automatic. */
void setConfiguredJobs(std::size_t jobs);

/** Fan RunTasks out over at most jobs() threads. */
class ParallelRunner
{
  public:
    /** Use configuredJobs() workers. */
    ParallelRunner();

    /** Use at most @p jobs workers (0 counts as 1). */
    explicit ParallelRunner(std::size_t jobs);

    std::size_t jobs() const { return jobCount; }

    /**
     * Record wall-clock profiling into @p p: one recordTask() per
     * task, with its latency and queue wait (0 when one worker runs
     * the whole list, else the time from fan-out start to task
     * start). Null disables profiling (the default); the profile
     * must outlive every runOutcomes() call. Profiling never touches
     * simulation state, so results stay byte-identical with it on or
     * off.
     */
    void setProfile(ExecProfile *p) { profile = p; }

    /**
     * Run every task with per-run isolation; outcomes in task order.
     * min(jobs, tasks) workers each claim the next task index from
     * one atomic counter until the list is done. One worker is the
     * calling thread, so one job or one task starts no worker thread
     * (its runs may still start a stream producer, see exec/run.hh);
     * more run on their own threads while the caller waits. Never throws
     * for a failing task —
     * failures are returned as RunOutcome rows (runTaskOutcome
     * above), so one poisoned run cannot abort the suite. Outcomes
     * are byte-identical for every jobs value: each task runs the
     * same guarded function and lands in its own slot.
     */
    std::vector<RunOutcome>
    runOutcomes(const std::vector<RunTask> &tasks) const;

  private:
    std::size_t jobCount;
    ExecProfile *profile = nullptr;
};

} // namespace mcd

#endif // MCDSIM_EXEC_PARALLEL_RUNNER_HH
