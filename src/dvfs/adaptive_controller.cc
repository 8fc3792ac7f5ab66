#include "dvfs/adaptive_controller.hh"

#include <algorithm>

#include "common/check.hh"
#include "common/error.hh"
#include "obs/debug_flags.hh"

namespace mcd
{

namespace
{

SignalFsm::Config
levelFsmConfig(const AdaptiveController::Config &cfg)
{
    SignalFsm::Config out;
    out.deviationWindow = cfg.levelDeviationWindow;
    out.baseDelay = cfg.levelDelay;
    out.signalScale = cfg.levelSignalScale;
    out.scaleDownCountByFrequency = cfg.scaleDownDelayByFrequency;
    return out;
}

SignalFsm::Config
deltaFsmConfig(const AdaptiveController::Config &cfg)
{
    SignalFsm::Config out;
    out.deviationWindow = cfg.deltaDeviationWindow;
    out.baseDelay = cfg.deltaDelay;
    out.signalScale = cfg.deltaSignalScale;
    out.scaleDownCountByFrequency = cfg.scaleDownDelayByFrequency;
    return out;
}

} // namespace

AdaptiveController::AdaptiveController(const VfCurve &curve,
                                       const Config &config)
    : vf(curve), cfg(config), level(levelFsmConfig(config)),
      delta(deltaFsmConfig(config))
{
    if (cfg.levelDelay <= 0.0 || cfg.deltaDelay <= 0.0)
        configError("adaptive", "basic delays must be positive");
    if (cfg.stepsPerAction == 0)
        configError("adaptive", "stepsPerAction must be nonzero");
}

DvfsDecision
AdaptiveController::makeDecision(int direction, std::uint32_t steps,
                                 Hertz current_hz)
{
    const Hertz delta_hz =
        static_cast<double>(direction) * static_cast<double>(steps) *
        vf.stepSize();
    const Hertz target = vf.clampFrequency(current_hz + delta_hz);
    // Table 1 clamp: the FSMs may request any number of steps, but the
    // commanded frequency must stay inside [f_min, f_max].
    MCDSIM_INVARIANT(target >= vf.fMin() && target <= vf.fMax(),
                     "adaptive target %g outside [%g, %g]", target,
                     vf.fMin(), vf.fMax());
    if (direction > 0)
        ++_stats.actionsUp;
    else
        ++_stats.actionsDown;
    MCDSIM_TRACE(obs::DebugFlag::Controller,
                 "action %s x%u: %.4f -> %.4f GHz",
                 direction > 0 ? "up" : "down", steps, current_hz / 1e9,
                 target / 1e9);
    return DvfsDecision{true, target};
}

DvfsDecision
AdaptiveController::sample(double queue_occupancy, Hertz current_hz,
                           bool in_transition)
{
    ++_stats.samples;

    // While the regulator ramps, hold everything: the Start -> Act
    // window of Figure 4 completes before a new round begins.
    if (in_transition && cfg.freezeWhileSwitching) {
        prevQueue = queue_occupancy;
        havePrevQueue = true;
        return DvfsDecision{};
    }

    // A sequential (non-combined) double action owes a second step.
    if (pendingSteps != 0) {
        const int dir = pendingSteps > 0 ? 1 : -1;
        pendingSteps -= dir;
        return makeDecision(dir, cfg.stepsPerAction, current_hz);
    }

    const double f_norm = std::clamp(vf.normalized(current_hz), 1e-6, 1.0);
    const double level_signal = queue_occupancy - cfg.qref;
    const double delta_signal =
        havePrevQueue ? queue_occupancy - prevQueue : 0.0;
    prevQueue = queue_occupancy;
    havePrevQueue = true;

    const FsmTrigger lt = level.sample(level_signal, f_norm);
    const FsmTrigger dt = delta.sample(delta_signal, f_norm);

    if (lt == FsmTrigger::None && dt == FsmTrigger::None)
        return DvfsDecision{};

    // Scheduler reconciliation (Section 3).
    if (lt != FsmTrigger::None && dt != FsmTrigger::None) {
        if (lt != dt) {
            // Opposite actions: cancel both, reset both FSMs.
            ++_stats.cancellations;
            MCDSIM_TRACE(obs::DebugFlag::Controller,
                         "cancel: level and delta disagree at occ=%g",
                         queue_occupancy);
            level.resetToWait();
            delta.resetToWait();
            return DvfsDecision{};
        }
        const int dir = lt == FsmTrigger::Up ? 1 : -1;
        if (cfg.combineSimultaneousActions)
            return makeDecision(dir, 2 * cfg.stepsPerAction, current_hz);
        pendingSteps = dir; // second step issued next sample
        return makeDecision(dir, cfg.stepsPerAction, current_hz);
    }

    const FsmTrigger t = lt != FsmTrigger::None ? lt : dt;
    return makeDecision(t == FsmTrigger::Up ? 1 : -1, cfg.stepsPerAction,
                        current_hz);
}

void
AdaptiveController::reset()
{
    level = SignalFsm(levelFsmConfig(cfg));
    delta = SignalFsm(deltaFsmConfig(cfg));
    prevQueue = 0.0;
    havePrevQueue = false;
    pendingSteps = 0;
    _stats = ControllerStats{};
}

} // namespace mcd
