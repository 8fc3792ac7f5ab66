/**
 * @file
 * Run options, run status and comparison rows: the vocabulary shared
 * by the one run entry point (mcd::run in exec/run.hh), the
 * execution layer's fan-out (exec/parallel_runner.hh) and the
 * campaign engine every harness launches its runs through
 * (campaign/campaign.hh).
 */

#ifndef MCDSIM_CORE_RUNNER_HH
#define MCDSIM_CORE_RUNNER_HH

#include <string>
#include <vector>

#include "core/metrics.hh"
#include "core/sim_config.hh"

namespace mcd
{

/** How to run a simulation: length, seed, observability and the
 *  SimConfig. Every RunSpec carries its own copy. */
struct RunOptions
{
    /** Instructions per benchmark run. */
    std::uint64_t instructions = 2'000'000;

    /** Base seed for the workload generators. */
    std::uint64_t seed = 1;

    /** Record frequency/queue traces. */
    bool recordTraces = false;

    /** Collect and render the hierarchical stats dump (src/obs/). */
    bool collectStats = false;

    /** Chrome trace-event collection (src/obs/). */
    obs::TraceConfig trace{};

    /** Start from this config (controller field is overridden). */
    SimConfig config{};
};

/** How a run ended (graceful-degradation status of one task). */
enum class RunStatus : std::uint8_t
{
    Ok,       ///< completed
    Failed,   ///< threw
    TimedOut, ///< stopped by the event budget or the cancel check
};

/** Report spelling: "ok", "failed", "timed_out". */
const char *runStatusName(RunStatus status);

/** True for the statuses that carry a valid result. */
inline bool
runSucceeded(RunStatus status)
{
    return status == RunStatus::Ok;
}

/** Result of one benchmark under one scheme, with baseline deltas. */
struct ComparisonRow
{
    std::string benchmark;
    std::string scheme;
    SimResult result;
    Comparison vsBaseline;

    /** Graceful degradation: how this row's run (or its baseline)
     *  ended. result/vsBaseline are meaningful only when
     *  runSucceeded(status). */
    RunStatus status = RunStatus::Ok;
    std::string error;
};

} // namespace mcd

#endif // MCDSIM_CORE_RUNNER_HH
