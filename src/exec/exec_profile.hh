/**
 * @file
 * Host-side profiling for the experiment execution layer (the
 * profiling pillar of src/obs/).
 *
 * Records wall-clock measurements only: per-task execution latency
 * and queue wait inside WorkerPool, plus named run-level phase timers
 * from ParallelRunner. These are properties of the host machine, not
 * of the simulation, so they are registered with obs::statHost and
 * excluded from deterministic stats dumps; perfbench's campaign-cold
 * workload reports them as its exec.* per-layer metrics instead.
 *
 * Thread safety: the recorders take an internal mutex (they are
 * called from pool workers); the render/register side locks the same
 * mutex, so dump after waitIdle() returns.
 */

#ifndef MCDSIM_EXEC_EXEC_PROFILE_HH
#define MCDSIM_EXEC_EXEC_PROFILE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "stats/histogram.hh"
#include "stats/summary.hh"

namespace mcd
{

namespace obs
{
class StatsRegistry;
} // namespace obs

/** Aggregated wall-clock measurements for one batch of runs. */
class ExecProfile
{
  public:
    ExecProfile() = default;

    ExecProfile(const ExecProfile &) = delete;
    ExecProfile &operator=(const ExecProfile &) = delete;

    /** One pool task: time queued and time executing, milliseconds. */
    void recordTask(double queue_wait_ms, double exec_ms);

    /** Accumulate @p ms into the named run-level phase timer. */
    void recordPhase(const std::string &name, double ms);

    /** @{ Snapshots (lock internally; cheap). */
    std::uint64_t taskCount() const;
    SummaryStats execSummary() const;
    SummaryStats waitSummary() const;
    double phaseMs(const std::string &name) const;
    /** @} */

    /**
     * Register everything under @p prefix with obs::statHost, so the
     * stats only appear in dumps that explicitly include host stats.
     * This object must outlive the registry's last dump.
     */
    void registerStats(obs::StatsRegistry &reg,
                       const std::string &prefix) const;

    /**
     * Compact JSON object for bench harness reports:
     * {"tasks": N, "exec_ms": {...}, "wait_ms": {...}, "phases": {...}}
     */
    std::string renderJson() const;

  private:
    mutable std::mutex mtx;
    SummaryStats execMs;
    SummaryStats waitMs;
    Histogram execHist{0.0, 1000.0, 20};
    Histogram waitHist{0.0, 1000.0, 20};
    std::map<std::string, double> phases;
};

} // namespace mcd

#endif // MCDSIM_EXEC_EXEC_PROFILE_HH
