/** @file Tests for the fixed-interval PID baseline [23]. */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "control/abstract_plant.hh"
#include "dvfs/pid_controller.hh"

namespace mcd
{
namespace
{

PidController::Config
testConfig()
{
    PidController::Config c;
    c.qref = 6.0;
    c.intervalSamples = 100;
    c.kp = 0.03;
    c.ki = 0.005;
    c.deadzone = 0.25;
    return c;
}

TEST(Pid, NoDecisionInsideInterval)
{
    VfCurve vf;
    PidController ctrl(vf, testConfig());
    for (int i = 0; i < 99; ++i)
        ASSERT_FALSE(ctrl.sample(15.0, 800e6, false).change);
}

TEST(Pid, DecisionOnlyAtIntervalBoundary)
{
    VfCurve vf;
    PidController ctrl(vf, testConfig());
    int decisions = 0;
    for (int i = 0; i < 1000; ++i) {
        if (ctrl.sample(15.0, 800e6, false).change)
            ++decisions;
    }
    EXPECT_LE(decisions, 10);
    EXPECT_GT(decisions, 0);
}

TEST(Pid, HighQueueRaisesFrequency)
{
    VfCurve vf;
    PidController ctrl(vf, testConfig());
    DvfsDecision d;
    for (int i = 0; i < 100; ++i)
        d = ctrl.sample(14.0, 600e6, false);
    ASSERT_TRUE(d.change);
    EXPECT_GT(d.targetHz, 600e6);
}

TEST(Pid, LowQueueLowersFrequency)
{
    VfCurve vf;
    PidController ctrl(vf, testConfig());
    DvfsDecision d;
    for (int i = 0; i < 100; ++i)
        d = ctrl.sample(1.0, 600e6, false);
    ASSERT_TRUE(d.change);
    EXPECT_LT(d.targetHz, 600e6);
}

TEST(Pid, DeadzoneSuppressesTinyErrors)
{
    VfCurve vf;
    auto cfg = testConfig();
    cfg.deadzone = 0.5;
    PidController ctrl(vf, cfg);
    for (int i = 0; i < 1000; ++i) {
        // Error 0.1 stays within the deadzone forever.
        ASSERT_FALSE(ctrl.sample(6.1, 600e6, false).change);
    }
}

TEST(Pid, AverageNotInstantaneousValueDrivesDecision)
{
    // Half the interval at 0 and half at 12 averages to qref: no
    // action (the paper's criticism: intra-interval swings vanish).
    VfCurve vf;
    PidController ctrl(vf, testConfig());
    bool any = false;
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 50; ++i)
            any |= ctrl.sample(0.0, 600e6, false).change;
        for (int i = 0; i < 50; ++i)
            any |= ctrl.sample(12.0, 600e6, false).change;
    }
    EXPECT_FALSE(any);
}

TEST(Pid, TargetStaysInRange)
{
    VfCurve vf;
    PidController ctrl(vf, testConfig());
    Hertz f = vf.fMax();
    for (int i = 0; i < 100000; ++i) {
        const auto d = ctrl.sample(20.0, f, false);
        if (d.change)
            f = d.targetHz;
        ASSERT_LE(f, vf.fMax());
        ASSERT_GE(f, vf.fMin());
    }
}

TEST(Pid, ResetClearsHistory)
{
    VfCurve vf;
    PidController ctrl(vf, testConfig());
    for (int i = 0; i < 500; ++i)
        ctrl.sample(14.0, 600e6, false);
    ctrl.reset();
    EXPECT_EQ(ctrl.stats().samples, 0u);
    EXPECT_EQ(ctrl.stats().totalActions(), 0u);
}

TEST(PidClosedLoop, RegulatesQueueToReference)
{
    VfCurve vf;
    PidController ctrl(vf, testConfig());
    AbstractQueuePlant::Config pc;
    pc.gamma = 0.05;
    AbstractQueuePlant plant(pc);

    Hertz f = vf.fMax();
    for (int i = 0; i < 400000; ++i) {
        const double q = plant.step(0.7, vf.normalized(f));
        const auto d = ctrl.sample(q, f, false);
        if (d.change)
            f = d.targetHz;
    }
    EXPECT_NEAR(plant.queue(), 6.0, 2.5);
}

TEST(PidDeath, ZeroIntervalRejected)
{
    VfCurve vf;
    PidController::Config cfg = testConfig();
    cfg.intervalSamples = 0;
    EXPECT_THROW(PidController(vf, cfg), ConfigError);
}

} // namespace
} // namespace mcd
