#include "dvfs/attack_decay_controller.hh"

#include <cmath>

#include "common/error.hh"

namespace mcd
{

AttackDecayController::AttackDecayController(const VfCurve &curve,
                                             const Config &config)
    : vf(curve), cfg(config)
{
    if (cfg.intervalSamples == 0)
        configError("attack-decay", "interval must be nonzero");
}

DvfsDecision
AttackDecayController::sample(double queue_occupancy, Hertz current_hz,
                              bool in_transition)
{
    (void)in_transition;

    ++_stats.samples;
    accum += queue_occupancy;
    if (++inInterval < cfg.intervalSamples)
        return DvfsDecision{};

    const double q_avg = accum / static_cast<double>(cfg.intervalSamples);
    accum = 0.0;
    inInterval = 0;

    const Hertz range = vf.fMax() - vf.fMin();
    Hertz target = current_hz;

    if (q_avg > cfg.emergencyFraction * cfg.queueCapacity) {
        // Performance protection: the queue is close to full.
        target = current_hz + cfg.attackFraction * range;
        ++attacks;
    } else if (havePrev &&
               std::abs(q_avg - prevAvg) > cfg.attackThreshold) {
        // Significant utilization change: attack in its direction.
        const double dir = q_avg > prevAvg ? 1.0 : -1.0;
        target = current_hz + dir * cfg.attackFraction * range;
        ++attacks;
    } else {
        // Steady state: decay slowly to harvest energy.
        target = current_hz - cfg.decayFraction * range;
        ++decays;
    }
    prevAvg = q_avg;
    havePrev = true;

    target = vf.clampFrequency(target);
    if (std::abs(target - current_hz) < 0.5 * vf.stepSize())
        return DvfsDecision{};

    if (target > current_hz)
        ++_stats.actionsUp;
    else
        ++_stats.actionsDown;
    return DvfsDecision{true, target};
}

void
AttackDecayController::reset()
{
    accum = 0.0;
    inInterval = 0;
    prevAvg = 0.0;
    havePrev = false;
    attacks = 0;
    decays = 0;
    _stats = ControllerStats{};
}

} // namespace mcd
