/**
 * @file
 * Umbrella header: the public API of the mcdsim library.
 *
 * Quickstart:
 * @code
 *   #include "core/mcdsim.hh"
 *
 *   mcd::RunOptions opts;
 *   opts.instructions = 1'000'000;
 *   auto base = mcd::run(mcd::syncBaselineSpec("epic_decode", opts));
 *   auto run = mcd::run(mcd::schemeSpec(
 *       "epic_decode", mcd::ControllerKind::Adaptive, opts));
 *   auto delta = mcd::compare(run, base);
 *   // delta.energySavings, delta.perfDegradation, ...
 * @endcode
 *
 * This is the only header examples/ and bench/ may include (the
 * determinism lint's facade-only rule enforces it); everything public
 * — RunSpec and run(), the campaign + run-cache layer, the parallel
 * runner, controllers, stats — is re-exported here.
 */

#ifndef MCDSIM_CORE_MCDSIM_HH
#define MCDSIM_CORE_MCDSIM_HH

#include "campaign/campaign.hh"
#include "campaign/result_io.hh"
#include "campaign/run_cache.hh"
#include "common/check.hh"
#include "common/digest.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "control/abstract_plant.hh"
#include "control/controller_model.hh"
#include "control/signals.hh"
#include "core/mcd_processor.hh"
#include "core/metrics.hh"
#include "core/report.hh"
#include "core/run_spec.hh"
#include "core/runner.hh"
#include "core/sim_config.hh"
#include "dvfs/adaptive_controller.hh"
#include "dvfs/attack_decay_controller.hh"
#include "dvfs/fixed_controller.hh"
#include "dvfs/hardware_cost.hh"
#include "dvfs/pid_controller.hh"
#include "exec/exec_profile.hh"
#include "exec/parallel_runner.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "spectrum/psd.hh"
#include "stats/summary.hh"
#include "stats/time_series.hh"
#include "workload/benchmarks.hh"

#endif // MCDSIM_CORE_MCDSIM_HH
