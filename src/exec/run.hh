/**
 * @file
 * mcd::run: execute one simulation run.
 *
 * Every launcher bottoms out here: examples and harnesses call it
 * directly, and ParallelRunner's workers call it once per task. A run
 * builds the profile's generator and an McdProcessor on it, and when
 * a core is free for a producer (the policy in
 * exec/pipelined_source.hh) feeds the processor through a
 * PipelinedSource, so the stream is generated on a helper thread
 * while this thread simulates. Which path a run takes depends on the
 * host and on the runs live beside it, never the result: both give
 * the same bytes.
 */

#ifndef MCDSIM_EXEC_RUN_HH
#define MCDSIM_EXEC_RUN_HH

#include <cstdint>
#include <string>

#include "core/run_spec.hh"
#include "core/runner.hh"

namespace mcd
{

/**
 * Execute one run described piecewise (the execution layer's
 * shared-RunOptions hot path — no RunSpec materialization, no extra
 * SimConfig copy beyond the one every run always made).
 */
SimResult run(const std::string &benchmark, RunKind kind,
              ControllerKind controller, std::uint64_t seed,
              const RunOptions &options);

/** Execute one run. The single entry point behind every launcher. */
inline SimResult
run(const RunSpec &spec)
{
    return run(spec.benchmark, spec.kind, spec.controller, spec.seed,
               spec.options);
}

} // namespace mcd

#endif // MCDSIM_EXEC_RUN_HH
