/** @file Tests for the phase-structured trace generator. */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "common/error.hh"
#include "workload/phase_generator.hh"

namespace mcd
{
namespace
{

PhaseSpec
simplePhase(double weight = 1.0)
{
    PhaseSpec p;
    p.label = "test";
    p.weight = weight;
    p.fracFp = 0.2;
    p.fracLoad = 0.2;
    p.fracStore = 0.1;
    p.fracBranch = 0.1;
    p.meanDepDist = 6.0;
    return p;
}

TEST(Generator, EmitsExactlyRequestedCount)
{
    PhaseTraceGenerator gen("t", {simplePhase()}, 10000, 1);
    TraceInst inst;
    std::uint64_t n = 0;
    while (gen.next(inst))
        ++n;
    EXPECT_EQ(n, 10000u);
    EXPECT_FALSE(gen.next(inst));
}

TEST(Generator, DeterministicAcrossInstances)
{
    PhaseTraceGenerator a("t", {simplePhase()}, 5000, 42);
    PhaseTraceGenerator b("t", {simplePhase()}, 5000, 42);
    TraceInst ia, ib;
    while (a.next(ia)) {
        ASSERT_TRUE(b.next(ib));
        ASSERT_EQ(ia.cls, ib.cls);
        ASSERT_EQ(ia.pc, ib.pc);
        ASSERT_EQ(ia.addr, ib.addr);
        ASSERT_EQ(ia.taken, ib.taken);
        ASSERT_EQ(ia.srcDist[0], ib.srcDist[0]);
        ASSERT_EQ(ia.srcDist[1], ib.srcDist[1]);
    }
}

TEST(Generator, ResetReplaysIdenticalStream)
{
    PhaseTraceGenerator gen("t", {simplePhase()}, 3000, 7);
    std::vector<TraceInst> first;
    TraceInst inst;
    while (gen.next(inst))
        first.push_back(inst);
    gen.reset();
    std::size_t i = 0;
    while (gen.next(inst)) {
        ASSERT_LT(i, first.size());
        ASSERT_EQ(inst.cls, first[i].cls);
        ASSERT_EQ(inst.pc, first[i].pc);
        ASSERT_EQ(inst.addr, first[i].addr);
        ++i;
    }
    EXPECT_EQ(i, first.size());
}

TEST(Generator, DifferentSeedsProduceDifferentStreams)
{
    PhaseTraceGenerator a("t", {simplePhase()}, 2000, 1);
    PhaseTraceGenerator b("t", {simplePhase()}, 2000, 2);
    TraceInst ia, ib;
    int differing = 0;
    while (a.next(ia) && b.next(ib)) {
        if (ia.cls != ib.cls || ia.addr != ib.addr)
            ++differing;
    }
    EXPECT_GT(differing, 100);
}

TEST(Generator, MixFractionsRoughlyHonored)
{
    PhaseTraceGenerator gen("t", {simplePhase()}, 100000, 3);
    std::map<InstClass, int> counts;
    TraceInst inst;
    int total = 0;
    while (gen.next(inst)) {
        ++counts[inst.cls];
        ++total;
    }
    const double frac_load =
        static_cast<double>(counts[InstClass::Load]) / total;
    const double frac_store =
        static_cast<double>(counts[InstClass::Store]) / total;
    const double frac_branch =
        static_cast<double>(counts[InstClass::Branch]) / total;
    double frac_fp = 0.0;
    for (auto cls : {InstClass::FpAdd, InstClass::FpMul, InstClass::FpDiv,
                     InstClass::FpSqrt}) {
        frac_fp += static_cast<double>(counts[cls]) / total;
    }
    EXPECT_NEAR(frac_load, 0.2, 0.02);
    EXPECT_NEAR(frac_store, 0.1, 0.02);
    EXPECT_NEAR(frac_branch, 0.1, 0.02);
    EXPECT_NEAR(frac_fp, 0.2, 0.02);
}

TEST(Generator, PhaseWeightsSplitInstructionBudget)
{
    auto p1 = simplePhase(3.0);
    p1.fracFp = 0.0;
    auto p2 = simplePhase(1.0);
    p2.fracFp = 0.6;
    PhaseTraceGenerator gen("t", {p1, p2}, 40000, 5);
    // First 30000 instructions come from p1 (no FP).
    TraceInst inst;
    int fp_in_first = 0;
    for (int i = 0; i < 30000; ++i) {
        ASSERT_TRUE(gen.next(inst));
        if (isFp(inst.cls))
            ++fp_in_first;
    }
    EXPECT_EQ(fp_in_first, 0);
    int fp_in_second = 0;
    for (int i = 0; i < 10000; ++i) {
        ASSERT_TRUE(gen.next(inst));
        if (isFp(inst.cls))
            ++fp_in_second;
    }
    EXPECT_GT(fp_in_second, 4000);
}

TEST(Generator, DependenceDistancesWithinBounds)
{
    PhaseTraceGenerator gen("t", {simplePhase()}, 20000, 9);
    TraceInst inst;
    while (gen.next(inst)) {
        ASSERT_LE(inst.srcDist[0], 64);
        ASSERT_LE(inst.srcDist[1], 64);
    }
}

TEST(Generator, BranchDependencesAreShort)
{
    PhaseTraceGenerator gen("t", {simplePhase()}, 50000, 9);
    TraceInst inst;
    while (gen.next(inst)) {
        if (inst.cls == InstClass::Branch) {
            ASSERT_GE(inst.srcDist[0], 1);
            ASSERT_LE(inst.srcDist[0], 8);
        }
    }
}

TEST(Generator, MeanDepDistTracksConfig)
{
    auto measure = [](double mean_dep) {
        auto p = simplePhase();
        p.meanDepDist = mean_dep;
        p.fracBranch = 0.0; // branches use their own short distances
        PhaseTraceGenerator gen("t", {p}, 50000, 11);
        TraceInst inst;
        double sum = 0.0;
        int n = 0;
        while (gen.next(inst)) {
            if (inst.srcDist[0]) {
                sum += inst.srcDist[0];
                ++n;
            }
        }
        return sum / n;
    };
    EXPECT_LT(measure(3.0), measure(12.0));
}

TEST(Generator, LoopBranchesHavePeriodicOutcomes)
{
    // A phase with a single static branch of Loop kind: its outcome
    // stream must be periodic (period-1 takens then one not-taken).
    auto p = simplePhase();
    p.fracBranch = 1.0;
    p.fracLoad = p.fracStore = p.fracFp = 0.0;
    p.staticBranches = 1;
    p.predictability = 0.99; // forces loop kind with high probability
    PhaseTraceGenerator gen("t", {p}, 2000, 13);

    TraceInst inst;
    std::vector<bool> outcomes;
    while (gen.next(inst))
        outcomes.push_back(inst.taken);

    // Count not-taken gaps: they must be evenly spaced for a loop.
    std::vector<std::size_t> nt;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i])
            nt.push_back(i);
    }
    if (nt.size() >= 3) {
        const std::size_t gap = nt[1] - nt[0];
        for (std::size_t i = 2; i < nt.size(); ++i)
            ASSERT_EQ(nt[i] - nt[i - 1], gap);
    }
}

TEST(Generator, ModulationChangesFpShareOverTime)
{
    auto p = simplePhase();
    p.fracFp = 0.3;
    p.modShape = ModShape::Square;
    p.modDepth = 0.8;
    p.modPeriodInsts = 10000;
    PhaseTraceGenerator gen("t", {p}, 20000, 15);

    TraceInst inst;
    int fp_first = 0, fp_second = 0;
    // Square modulation with period 10000: instructions 0-4999 carry
    // +depth, instructions 5000-9999 carry -depth.
    for (int i = 0; i < 5000; ++i) {
        gen.next(inst);
        fp_first += isFp(inst.cls);
    }
    for (int i = 0; i < 5000; ++i) {
        gen.next(inst);
        fp_second += isFp(inst.cls);
    }
    // First half is high (depth +0.8), second half low (-0.8).
    EXPECT_GT(fp_first, 2 * fp_second);
}

TEST(Generator, CycleModeRevisitsSameCodeRegions)
{
    auto p1 = simplePhase(1.0);
    auto p2 = simplePhase(1.0);
    PhaseTraceGenerator gen("t", {p1, p2}, 100000, 17, true);
    TraceInst inst;
    std::set<Addr> code_pages;
    while (gen.next(inst))
        code_pages.insert(inst.pc >> 20);
    // Two logical phases -> at most two distinct 1 MB code regions,
    // regardless of how many times the phases repeat.
    EXPECT_LE(code_pages.size(), 2u);
}

TEST(Generator, MemOpsHaveAddresses)
{
    PhaseTraceGenerator gen("t", {simplePhase()}, 10000, 19);
    TraceInst inst;
    while (gen.next(inst)) {
        if (isMem(inst.cls)) {
            ASSERT_NE(inst.addr, 0u);
        }
    }
}

TEST(GeneratorDeath, NoPhasesRejected)
{
    EXPECT_THROW(PhaseTraceGenerator("t", {}, 1000, 1), ConfigError);
}

TEST(GeneratorDeath, ZeroInstructionsRejected)
{
    EXPECT_THROW(PhaseTraceGenerator("t", {simplePhase()}, 0, 1),
                 ConfigError);
}

} // namespace
} // namespace mcd
