/** @file Tests for deterministic fault injection (fault/fault_injector.hh). */

#include <gtest/gtest.h>

#include <vector>

#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"

namespace mcd
{
namespace
{

FaultInjector::Identity
ident()
{
    FaultInjector::Identity id;
    id.benchmark = "gzip";
    id.scheme = "adaptive";
    id.seed = 7;
    return id;
}

TEST(FaultInjector, NullPlanIsInactivePassThrough)
{
    FaultInjector inj(nullptr, ident());
    EXPECT_FALSE(inj.active());
    EXPECT_DOUBLE_EQ(inj.perturbOccupancy(0, 5.5), 5.5);
    EXPECT_FALSE(inj.dropUpdate(0));
    EXPECT_DOUBLE_EQ(inj.clampTarget(0, 1.0e9), 1.0e9);
    EXPECT_EQ(inj.injectedTotal(), 0u);
}

TEST(FaultInjector, ExecOnlySpecsDoNotArmTheSimulator)
{
    const auto plan =
        FaultPlan::parseShared("task-throw");
    FaultInjector inj(plan, ident());
    EXPECT_FALSE(inj.active());
}

TEST(FaultInjector, RunFilterDisarmsNonMatchingSpecs)
{
    const auto plan =
        FaultPlan::parseShared("sensor-noise:amp=1,bench=swim");
    FaultInjector mismatch(plan, ident());
    EXPECT_FALSE(mismatch.active());

    auto id = ident();
    id.benchmark = "swim";
    FaultInjector match(plan, id);
    EXPECT_TRUE(match.active());
}

TEST(FaultInjector, SameIdentitySamePlanSameSequence)
{
    const auto plan = FaultPlan::parseShared(
        "sensor-noise:amp=2,rate=0.5;drop-update:rate=0.3");
    FaultInjector a(plan, ident());
    FaultInjector b(plan, ident());
    for (int i = 0; i < 500; ++i) {
        const std::size_t dom = static_cast<std::size_t>(i % 3);
        EXPECT_DOUBLE_EQ(a.perturbOccupancy(dom, 5.0),
                         b.perturbOccupancy(dom, 5.0));
        EXPECT_EQ(a.dropUpdate(dom), b.dropUpdate(dom));
    }
    EXPECT_EQ(a.injectedTotal(), b.injectedTotal());
    EXPECT_GT(a.injectedTotal(), 0u);
}

TEST(FaultInjector, AppendingASpecNeverShiftsEarlierStreams)
{
    // Streams are keyed by plan position, so growing a plan at the
    // tail leaves every existing spec's injection sequence intact.
    const auto small = FaultPlan::parseShared("sensor-noise:amp=2");
    const auto grown =
        FaultPlan::parseShared("sensor-noise:amp=2;drop-update:rate=0.5");
    FaultInjector a(small, ident());
    FaultInjector b(grown, ident());
    for (int i = 0; i < 200; ++i) {
        EXPECT_DOUBLE_EQ(a.perturbOccupancy(1, 6.0),
                         b.perturbOccupancy(1, 6.0));
    }
}

TEST(FaultInjector, DomainFilterLimitsInjection)
{
    const auto plan =
        FaultPlan::parseShared("sensor-noise:amp=3,dom=int");
    FaultInjector inj(plan, ident());
    bool perturbed = false;
    for (int i = 0; i < 100; ++i) {
        perturbed = perturbed || inj.perturbOccupancy(0, 5.0) != 5.0;
        EXPECT_DOUBLE_EQ(inj.perturbOccupancy(1, 5.0), 5.0);
        EXPECT_DOUBLE_EQ(inj.perturbOccupancy(2, 5.0), 5.0);
    }
    EXPECT_TRUE(perturbed);
}

TEST(FaultInjector, RateZeroAndOneAreExact)
{
    const auto never = FaultPlan::parseShared("drop-update:rate=0");
    const auto always = FaultPlan::parseShared("drop-update:rate=1");
    FaultInjector n(never, ident()), a(always, ident());
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(n.dropUpdate(0));
        EXPECT_TRUE(a.dropUpdate(0));
    }
    EXPECT_EQ(n.injectedCount(FaultSite::DropUpdate), 0u);
    EXPECT_EQ(a.injectedCount(FaultSite::DropUpdate), 100u);
}

TEST(FaultInjector, PerturbedOccupancyNeverGoesNegative)
{
    const auto plan = FaultPlan::parseShared("sensor-noise:amp=50");
    FaultInjector inj(plan, ident());
    for (int i = 0; i < 300; ++i)
        EXPECT_GE(inj.perturbOccupancy(0, 0.5), 0.0);
}

TEST(FaultInjector, DelayLineHoldsDecisionForConfiguredSamples)
{
    const auto plan = FaultPlan::parseShared("delay-update:samples=2");
    FaultInjector inj(plan, ident());

    DvfsDecision change;
    change.change = true;
    change.targetHz = 0.75e9;

    // The change is captured and withheld...
    DvfsDecision out = inj.filterDecision(0, change);
    EXPECT_FALSE(out.change);
    // ...stays held while the hold count drains...
    out = inj.filterDecision(0, DvfsDecision{});
    EXPECT_FALSE(out.change);
    // ...and emerges exactly samples calls later.
    out = inj.filterDecision(0, DvfsDecision{});
    EXPECT_TRUE(out.change);
    EXPECT_DOUBLE_EQ(out.targetHz, 0.75e9);
    EXPECT_EQ(inj.injectedCount(FaultSite::DelayUpdate), 1u);

    // Delay lines are per-domain: domain 1 never saw a decision.
    EXPECT_FALSE(inj.filterDecision(1, DvfsDecision{}).change);
}

TEST(FaultInjector, ClampLimitsRequestedTargets)
{
    const auto plan =
        FaultPlan::parseShared("clamp-vf:lo=0.5,hi=0.8");
    FaultInjector inj(plan, ident());
    EXPECT_DOUBLE_EQ(inj.clampTarget(0, 1.0e9), 0.8e9);
    EXPECT_DOUBLE_EQ(inj.clampTarget(0, 0.3e9), 0.5e9);
    // In-band targets pass through and are not counted as injections.
    EXPECT_DOUBLE_EQ(inj.clampTarget(0, 0.6e9), 0.6e9);
    EXPECT_EQ(inj.injectedCount(FaultSite::ClampVf), 2u);
}

} // namespace
} // namespace mcd
