/** @file Tests for the attack/decay baseline [9]. */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "dvfs/attack_decay_controller.hh"

namespace mcd
{
namespace
{

AttackDecayController::Config
testConfig()
{
    AttackDecayController::Config c;
    c.intervalSamples = 100;
    c.attackThreshold = 1.0;
    c.attackFraction = 0.06;
    c.decayFraction = 0.002;
    c.emergencyFraction = 0.8;
    c.queueCapacity = 20.0;
    return c;
}

/** Run one full interval at a constant queue level. */
DvfsDecision
runInterval(AttackDecayController &ctrl, double queue, Hertz f)
{
    DvfsDecision d;
    for (int i = 0; i < 100; ++i)
        d = ctrl.sample(queue, f, false);
    return d;
}

TEST(AttackDecay, SteadyUtilizationDecays)
{
    VfCurve vf;
    AttackDecayController ctrl(vf, testConfig());
    runInterval(ctrl, 6.0, 800e6); // primes prevAvg
    const auto d = runInterval(ctrl, 6.0, 800e6);
    ASSERT_TRUE(d.change);
    EXPECT_LT(d.targetHz, 800e6);
    const Hertz range = vf.fMax() - vf.fMin();
    EXPECT_NEAR(d.targetHz, 800e6 - 0.002 * range, 1e3);
    EXPECT_GE(ctrl.decayCount(), 1u);
}

TEST(AttackDecay, RisingUtilizationAttacksUp)
{
    VfCurve vf;
    AttackDecayController ctrl(vf, testConfig());
    runInterval(ctrl, 4.0, 800e6);
    const auto d = runInterval(ctrl, 8.0, 800e6);
    ASSERT_TRUE(d.change);
    const Hertz range = vf.fMax() - vf.fMin();
    EXPECT_NEAR(d.targetHz, 800e6 + 0.06 * range, 1e3);
    EXPECT_GE(ctrl.attackCount(), 1u);
}

TEST(AttackDecay, FallingUtilizationAttacksDown)
{
    VfCurve vf;
    AttackDecayController ctrl(vf, testConfig());
    runInterval(ctrl, 10.0, 800e6);
    const auto d = runInterval(ctrl, 4.0, 800e6);
    ASSERT_TRUE(d.change);
    EXPECT_LT(d.targetHz, 800e6 - 0.01 * (vf.fMax() - vf.fMin()));
}

TEST(AttackDecay, SmallChangeBelowThresholdDecays)
{
    VfCurve vf;
    AttackDecayController ctrl(vf, testConfig());
    runInterval(ctrl, 6.0, 800e6);
    const auto d = runInterval(ctrl, 6.5, 800e6);
    // Change of 0.5 < threshold 1.0: decay, not attack.
    ASSERT_TRUE(d.change);
    EXPECT_LT(d.targetHz, 800e6);
    EXPECT_GT(d.targetHz, 800e6 - 0.01 * (vf.fMax() - vf.fMin()));
}

TEST(AttackDecay, EmergencySpeedUpNearFullQueue)
{
    VfCurve vf;
    AttackDecayController ctrl(vf, testConfig());
    const auto d = runInterval(ctrl, 17.0, 500e6); // 17 > 0.8 * 20
    ASSERT_TRUE(d.change);
    EXPECT_GT(d.targetHz, 500e6);
}

TEST(AttackDecay, NoChangeRequestAtFloor)
{
    VfCurve vf;
    AttackDecayController ctrl(vf, testConfig());
    runInterval(ctrl, 2.0, vf.fMin());
    const auto d = runInterval(ctrl, 2.0, vf.fMin());
    // Decay from f_min clamps back to f_min: no transition requested.
    EXPECT_FALSE(d.change);
}

TEST(AttackDecay, DecaysToFloorOverManyIntervals)
{
    VfCurve vf;
    AttackDecayController ctrl(vf, testConfig());
    Hertz f = vf.fMax();
    for (int interval = 0; interval < 2000; ++interval) {
        const auto d = runInterval(ctrl, 6.0, f);
        if (d.change)
            f = d.targetHz;
    }
    EXPECT_NEAR(f, vf.fMin(), vf.stepSize());
}

TEST(AttackDecay, ResetClearsState)
{
    VfCurve vf;
    AttackDecayController ctrl(vf, testConfig());
    runInterval(ctrl, 6.0, 800e6);
    runInterval(ctrl, 12.0, 800e6);
    ctrl.reset();
    EXPECT_EQ(ctrl.stats().samples, 0u);
    EXPECT_EQ(ctrl.attackCount(), 0u);
    EXPECT_EQ(ctrl.decayCount(), 0u);
}

TEST(AttackDecayDeath, ZeroIntervalRejected)
{
    VfCurve vf;
    auto cfg = testConfig();
    cfg.intervalSamples = 0;
    EXPECT_THROW(AttackDecayController(vf, cfg), ConfigError);
}

} // namespace
} // namespace mcd
