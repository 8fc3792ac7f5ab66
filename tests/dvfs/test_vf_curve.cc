/** @file Tests for the voltage/frequency operating range. */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "dvfs/vf_curve.hh"

namespace mcd
{
namespace
{

TEST(VfCurve, Table1Defaults)
{
    VfCurve vf;
    EXPECT_DOUBLE_EQ(vf.fMin(), 250e6);
    EXPECT_DOUBLE_EQ(vf.fMax(), 1e9);
    EXPECT_DOUBLE_EQ(vf.vMin(), 0.65);
    EXPECT_DOUBLE_EQ(vf.vMax(), 1.20);
    EXPECT_EQ(vf.stepCount(), 320u);
    // 750 MHz over 320 steps ~ 2.34 MHz per step (Table 1: 2.3 MHz).
    EXPECT_NEAR(vf.stepSize(), 2.34375e6, 1.0);
}

TEST(VfCurve, VoltageEndpoints)
{
    VfCurve vf;
    EXPECT_DOUBLE_EQ(vf.voltageAt(vf.fMin()), 0.65);
    EXPECT_DOUBLE_EQ(vf.voltageAt(vf.fMax()), 1.20);
}

TEST(VfCurve, VoltageIsAffine)
{
    VfCurve vf;
    const Hertz mid = (vf.fMin() + vf.fMax()) / 2.0;
    EXPECT_NEAR(vf.voltageAt(mid), (0.65 + 1.20) / 2.0, 1e-12);
}

TEST(VfCurve, VoltageMonotone)
{
    VfCurve vf;
    Volt prev = 0.0;
    for (std::uint32_t i = 0; i <= vf.stepCount(); ++i) {
        const Volt v = vf.voltageAt(vf.frequencyAt(i));
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST(VfCurve, ClampFrequency)
{
    VfCurve vf;
    EXPECT_DOUBLE_EQ(vf.clampFrequency(100e6), 250e6);
    EXPECT_DOUBLE_EQ(vf.clampFrequency(2e9), 1e9);
    EXPECT_DOUBLE_EQ(vf.clampFrequency(500e6), 500e6);
}

TEST(VfCurve, IndexRoundTrip)
{
    VfCurve vf;
    for (std::uint32_t i = 0; i <= vf.stepCount(); i += 7)
        EXPECT_EQ(vf.indexOf(vf.frequencyAt(i)), i);
}

TEST(VfCurve, IndexClampsOutOfRange)
{
    VfCurve vf;
    EXPECT_EQ(vf.indexOf(0.0), 0u);
    EXPECT_EQ(vf.indexOf(5e9), vf.stepCount());
    EXPECT_EQ(vf.frequencyAt(10000), vf.fMax());
}

TEST(VfCurve, NormalizedFrequency)
{
    VfCurve vf;
    EXPECT_DOUBLE_EQ(vf.normalized(vf.fMax()), 1.0);
    EXPECT_DOUBLE_EQ(vf.normalized(vf.fMin()), 0.25);
}

TEST(VfCurveDeath, BadRange)
{
    VfCurve::Config bad;
    bad.fMin = 1e9;
    bad.fMax = 250e6;
    EXPECT_THROW(VfCurve{bad}, ConfigError);
}

TEST(VfCurveDeath, ZeroSteps)
{
    VfCurve::Config bad;
    bad.steps = 0;
    EXPECT_THROW(VfCurve{bad}, ConfigError);
}

} // namespace
} // namespace mcd
