#include "dvfs/vf_curve.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"
#include "common/error.hh"

namespace mcd
{

VfCurve::VfCurve(const Config &config)
    : cfg(config)
{
    if (cfg.fMax <= cfg.fMin)
        configError("vf-curve", "fMax (%g) must exceed fMin (%g)", cfg.fMax,
                    cfg.fMin);
    if (cfg.vMax < cfg.vMin)
        configError("vf-curve", "vMax (%g) must be >= vMin (%g)", cfg.vMax,
                    cfg.vMin);
    if (cfg.steps == 0)
        configError("vf-curve", "step count must be nonzero");
    stepHz = (cfg.fMax - cfg.fMin) / static_cast<double>(cfg.steps);
    MCDSIM_INVARIANT(stepHz > 0.0, "non-positive frequency step %g", stepHz);
    // The controllers assume the discrete V/F table is monotone: a
    // higher step index never means a lower frequency or voltage.
    for (std::uint32_t i = 1; i <= cfg.steps; ++i) {
        MCDSIM_INVARIANT(frequencyAt(i) > frequencyAt(i - 1),
                         "VF curve frequency not increasing at step %u", i);
        MCDSIM_INVARIANT(voltageAt(frequencyAt(i)) >=
                             voltageAt(frequencyAt(i - 1)),
                         "VF curve voltage not monotone at step %u", i);
    }
}

Hertz
VfCurve::clampFrequency(Hertz f) const
{
    return std::clamp(f, cfg.fMin, cfg.fMax);
}

Volt
VfCurve::voltageAt(Hertz f) const
{
    const Hertz fc = clampFrequency(f);
    const double frac = (fc - cfg.fMin) / (cfg.fMax - cfg.fMin);
    return cfg.vMin + frac * (cfg.vMax - cfg.vMin);
}

std::uint32_t
VfCurve::indexOf(Hertz f) const
{
    const Hertz fc = clampFrequency(f);
    const double idx = (fc - cfg.fMin) / stepHz;
    const auto rounded = static_cast<std::uint32_t>(idx + 0.5);
    return std::min(rounded, cfg.steps);
}

Hertz
VfCurve::frequencyAt(std::uint32_t index) const
{
    const std::uint32_t clamped = std::min(index, cfg.steps);
    return cfg.fMin + stepHz * static_cast<double>(clamped);
}

} // namespace mcd
