/** @file Tests for fault-spec parsing (fault/fault_plan.hh). */

#include <gtest/gtest.h>

#include <string>

#include "common/error.hh"
#include "fault/fault_plan.hh"

namespace mcd
{
namespace
{

TEST(FaultPlan, EmptySpecYieldsEmptyPlan)
{
    EXPECT_TRUE(FaultPlan::parse("").empty());
    EXPECT_TRUE(FaultPlan::parse("  \t ").empty());
    EXPECT_TRUE(FaultPlan::parse(";;").empty());
    EXPECT_EQ(FaultPlan::parseShared(""), nullptr);
    EXPECT_EQ(FaultPlan::parseShared("  "), nullptr);
}

TEST(FaultPlan, ParsesFullGrammar)
{
    const FaultPlan plan = FaultPlan::parse(
        "sensor-noise:amp=2.5,rate=0.5,dom=int;"
        "drop-update:rate=0.25;"
        "delay-update:samples=3,dom=fp;"
        "clamp-vf:lo=0.5,hi=0.8,dom=ls;"
        "task-throw:bench=gzip,scheme=adaptive");
    ASSERT_EQ(plan.specs().size(), 5u);

    const FaultSpec &noise = plan.specs()[0];
    EXPECT_EQ(noise.site, FaultSite::SensorNoise);
    EXPECT_DOUBLE_EQ(noise.amplitude, 2.5);
    EXPECT_DOUBLE_EQ(noise.rate, 0.5);
    EXPECT_EQ(noise.domain, 0);
    EXPECT_TRUE(noise.matchesDomain(0));
    EXPECT_FALSE(noise.matchesDomain(1));

    const FaultSpec &thr = plan.specs()[4];
    EXPECT_EQ(thr.site, FaultSite::TaskThrow);
    EXPECT_EQ(thr.benchmark, "gzip");
    EXPECT_EQ(thr.scheme, "adaptive");
    EXPECT_TRUE(thr.matchesRun("gzip", "adaptive"));
    EXPECT_FALSE(thr.matchesRun("swim", "adaptive"));
    EXPECT_FALSE(thr.matchesRun("gzip", "pid-fixed-interval"));

    EXPECT_TRUE(plan.hasSimFaults());
    EXPECT_EQ(plan.specsFor(FaultSite::SensorNoise).size(), 1u);
    EXPECT_TRUE(plan.taskThrows("gzip", "adaptive"));
    EXPECT_FALSE(plan.taskThrows("swim", "adaptive"));
}

TEST(FaultPlan, WhitespaceAndDefaultsAreForgiving)
{
    const FaultPlan plan =
        FaultPlan::parse(" drop-update ; sensor-noise : amp = 1.5 ");
    ASSERT_EQ(plan.specs().size(), 2u);
    EXPECT_EQ(plan.specs()[0].site, FaultSite::DropUpdate);
    EXPECT_DOUBLE_EQ(plan.specs()[0].rate, 1.0); // default: always
    EXPECT_EQ(plan.specs()[0].domain, -1);       // default: all domains
    EXPECT_EQ(plan.specs()[0].benchmark, "*");
    EXPECT_DOUBLE_EQ(plan.specs()[1].amplitude, 1.5);
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    const auto reject = [](const std::string &spec) {
        try {
            FaultPlan::parse(spec);
            FAIL() << "accepted: " << spec;
        } catch (const ConfigError &e) {
            EXPECT_EQ(e.site(), "fault-spec") << spec;
        }
    };
    reject("meteor-strike");                  // unknown site
    reject("trace-corrupt");                  // retired site
    reject("sensor-noise:amp=2,color=red");   // unknown key
    reject("sensor-noise:amp=abc");           // malformed number
    reject("sensor-noise:amp");               // missing '='
    reject("sensor-noise");                   // amp required
    reject("sensor-noise:amp=-1");            // negative amplitude
    reject("drop-update:rate=1.5");           // rate out of [0,1]
    reject("drop-update:rate=-0.1");          // rate out of [0,1]
    reject("drop-update:dom=gpu");            // unknown domain
    reject("delay-update");                   // samples required
    reject("delay-update:samples=0");         // zero delay
    reject("clamp-vf:lo=1.0,hi=0.5");         // inverted band
    reject("clamp-vf");                       // hi required
    reject("task-slow:spin=1");               // retired site
    reject("task-throw:attempts=1");          // retired key
    reject("drop-update:attempts=1");         // retired key
}

TEST(FaultPlan, CanonicalFormIsStableAcrossReparses)
{
    const std::string messy =
        "  task-throw : scheme=pid , bench=gzip ;"
        "sensor-noise:rate=0.5,amp=2,dom=int ; clamp-vf:hi=1,lo=0.5 ";
    const FaultPlan plan = FaultPlan::parse(messy);
    const std::string canon = plan.canonical();
    // Reparsing the canonical form is a fixed point.
    EXPECT_EQ(FaultPlan::parse(canon).canonical(), canon);
    // Keys come out in a fixed order with defaults elided.
    EXPECT_EQ(canon,
              "task-throw:bench=gzip,scheme=pid;"
              "sensor-noise:amp=2,rate=0.5,dom=int;"
              "clamp-vf:lo=0.5,hi=1");
}

TEST(FaultPlan, SpecOrderIsPreserved)
{
    const FaultPlan plan =
        FaultPlan::parse("drop-update;sensor-noise:amp=1;drop-update:rate=0.5");
    ASSERT_EQ(plan.specs().size(), 3u);
    EXPECT_EQ(plan.specs()[0].site, FaultSite::DropUpdate);
    EXPECT_EQ(plan.specs()[1].site, FaultSite::SensorNoise);
    EXPECT_EQ(plan.specs()[2].site, FaultSite::DropUpdate);
    const auto drops = plan.specsFor(FaultSite::DropUpdate);
    ASSERT_EQ(drops.size(), 2u);
    EXPECT_DOUBLE_EQ(drops[0]->rate, 1.0);
    EXPECT_DOUBLE_EQ(drops[1]->rate, 0.5);
}

TEST(FaultPlan, SiteNamesRoundTrip)
{
    EXPECT_STREQ(faultSiteName(FaultSite::SensorNoise), "sensor-noise");
    EXPECT_STREQ(faultSiteName(FaultSite::TaskThrow), "task-throw");
    for (std::size_t i = 0; i < numFaultSites; ++i) {
        const auto site = static_cast<FaultSite>(i);
        EXPECT_STRNE(faultSiteName(site), "?");
    }
}

} // namespace
} // namespace mcd
