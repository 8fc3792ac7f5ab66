#include "dvfs/pid_controller.hh"

#include <cmath>

#include "common/check.hh"
#include "common/error.hh"

namespace mcd
{

PidController::PidController(const VfCurve &curve, const Config &config)
    : vf(curve), cfg(config)
{
    if (cfg.intervalSamples == 0)
        configError("pid", "interval must be nonzero");
}

DvfsDecision
PidController::sample(double queue_occupancy, Hertz current_hz,
                      bool in_transition)
{
    (void)in_transition; // fixed-interval schemes decide regardless

    ++_stats.samples;
    accum += queue_occupancy;
    if (++inInterval < cfg.intervalSamples)
        return DvfsDecision{};

    const double q_avg = accum / static_cast<double>(cfg.intervalSamples);
    accum = 0.0;
    inInterval = 0;

    const double e = q_avg - cfg.qref;
    double delta = 0.0;
    if (haveHistory) {
        delta = cfg.kp * (e - e1) + cfg.ki * e +
                cfg.kd * (e - 2.0 * e1 + e2);
    } else {
        delta = cfg.ki * e;
        haveHistory = true;
    }
    e2 = e1;
    e1 = e;

    if (std::abs(e) < cfg.deadzone)
        return DvfsDecision{};

    // PID output is in "fraction of frequency range per interval".
    const Hertz range = vf.fMax() - vf.fMin();
    const Hertz target = vf.clampFrequency(current_hz + delta * range);
    // Table 1 clamp: every commanded frequency stays inside
    // [f_min, f_max]; the stability argument (Section 4) assumes it.
    MCDSIM_INVARIANT(target >= vf.fMin() && target <= vf.fMax(),
                     "PID target %g outside [%g, %g]", target, vf.fMin(),
                     vf.fMax());
    if (std::abs(target - current_hz) < 0.5 * vf.stepSize())
        return DvfsDecision{};

    if (target > current_hz)
        ++_stats.actionsUp;
    else
        ++_stats.actionsDown;
    return DvfsDecision{true, target};
}

void
PidController::reset()
{
    accum = 0.0;
    inInterval = 0;
    e1 = e2 = 0.0;
    haveHistory = false;
    _stats = ControllerStats{};
}

} // namespace mcd
