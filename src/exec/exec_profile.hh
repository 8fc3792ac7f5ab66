/**
 * @file
 * Host-side profiling for the experiment execution layer.
 *
 * Records wall-clock measurements only: per-task execution latency
 * and queue wait in ParallelRunner::runOutcomes(). These are
 * properties of the host machine, not of the simulation, so they
 * never enter a stats dump or a SimResult; perfbench's campaign-cold
 * workload reports them as its exec.* per-layer metrics.
 *
 * Thread safety: recordTask() is called from the runner's workers and
 * takes an internal mutex; the snapshots lock the same mutex, so read
 * them after runOutcomes() returns.
 */

#ifndef MCDSIM_EXEC_EXEC_PROFILE_HH
#define MCDSIM_EXEC_EXEC_PROFILE_HH

#include <mutex>

#include "stats/summary.hh"

namespace mcd
{

/** Aggregated wall-clock measurements for one batch of runs. */
class ExecProfile
{
  public:
    ExecProfile() = default;

    ExecProfile(const ExecProfile &) = delete;
    ExecProfile &operator=(const ExecProfile &) = delete;

    /** One task: time queued and time executing, milliseconds. */
    void recordTask(double queue_wait_ms, double exec_ms);

    /** @{ Snapshots (lock internally; cheap). */
    SummaryStats execSummary() const;
    SummaryStats waitSummary() const;
    /** @} */

  private:
    mutable std::mutex mtx;
    SummaryStats execMs;
    SummaryStats waitMs;
};

} // namespace mcd

#endif // MCDSIM_EXEC_EXEC_PROFILE_HH
