/** @file Tests for the combined branch predictor + BTB (Table 1). */

#include <gtest/gtest.h>

#include "arch/branch_predictor.hh"
#include "common/error.hh"
#include "common/random.hh"

namespace mcd
{
namespace
{

TEST(BranchPredictor, LearnsAlwaysTaken)
{
    BranchPredictor bp;
    const Addr pc = 0x4000;
    for (int i = 0; i < 8; ++i)
        bp.update(pc, true, pc - 64);
    EXPECT_TRUE(bp.predict(pc).taken);
}

TEST(BranchPredictor, LearnsAlwaysNotTaken)
{
    BranchPredictor bp;
    const Addr pc = 0x4000;
    for (int i = 0; i < 8; ++i)
        bp.update(pc, false, 0);
    EXPECT_FALSE(bp.predict(pc).taken);
}

TEST(BranchPredictor, BtbProvidesTargetAfterTakenBranch)
{
    BranchPredictor bp;
    const Addr pc = 0x4000, target = 0x3f00;
    EXPECT_FALSE(bp.predict(pc).btbHit);
    bp.update(pc, true, target);
    const auto pred = bp.predict(pc);
    EXPECT_TRUE(pred.btbHit);
    EXPECT_EQ(pred.target, target);
}

TEST(BranchPredictor, BtbUpdatesChangedTarget)
{
    BranchPredictor bp;
    const Addr pc = 0x4000;
    bp.update(pc, true, 0x1000);
    bp.update(pc, true, 0x2000);
    EXPECT_EQ(bp.predict(pc).target, 0x2000u);
}

TEST(BranchPredictor, NotTakenBranchesDoNotAllocateBtb)
{
    BranchPredictor bp;
    const Addr pc = 0x4000;
    for (int i = 0; i < 10; ++i)
        bp.update(pc, false, 0x1000);
    EXPECT_FALSE(bp.predict(pc).btbHit);
}

TEST(BranchPredictor, TwoLevelLearnsShortLoopPattern)
{
    // Pattern: 7 taken, 1 not-taken, repeating. Bimodal alone would
    // miss every 8th; the two-level component should learn the
    // history and push accuracy well above 7/8 after warmup.
    BranchPredictor bp;
    const Addr pc = 0x8000;
    // Warmup.
    for (int i = 0; i < 2000; ++i) {
        const bool taken = (i % 8) != 7;
        bp.update(pc, taken, pc - 32);
    }
    int correct = 0;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        const bool taken = (i % 8) != 7;
        if (bp.predict(pc).taken == taken)
            ++correct;
        bp.update(pc, taken, pc - 32);
    }
    EXPECT_GT(static_cast<double>(correct) / n, 0.95);
}

TEST(BranchPredictor, AlternatingPatternLearned)
{
    BranchPredictor bp;
    const Addr pc = 0x8800;
    for (int i = 0; i < 1000; ++i)
        bp.update(pc, i % 2 == 0, pc + 64);
    int correct = 0;
    for (int i = 0; i < 1000; ++i) {
        if (bp.predict(pc).taken == (i % 2 == 0))
            ++correct;
        bp.update(pc, i % 2 == 0, pc + 64);
    }
    EXPECT_GT(correct, 950);
}

TEST(BranchPredictor, BiasedRandomApproachesBiasAccuracy)
{
    BranchPredictor bp;
    Rng rng(7);
    const Addr pc = 0x9000;
    const double bias = 0.9;
    for (int i = 0; i < 2000; ++i)
        bp.update(pc, rng.chance(bias), pc - 16);
    int correct = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
        const bool taken = rng.chance(bias);
        if (bp.predict(pc).taken == taken)
            ++correct;
        bp.update(pc, taken, pc - 16);
    }
    // Can't beat the bias by much, shouldn't be far below it.
    EXPECT_GT(static_cast<double>(correct) / n, 0.85);
}

TEST(BranchPredictor, IndependentBranchesDoNotInterfereViaBimodal)
{
    BranchPredictor bp;
    const Addr a = 0x1000, b = 0x1004;
    for (int i = 0; i < 20; ++i) {
        bp.update(a, true, a + 64);
        bp.update(b, false, 0);
    }
    EXPECT_TRUE(bp.predict(a).taken);
    EXPECT_FALSE(bp.predict(b).taken);
}

TEST(BranchPredictor, AccuracyBookkeeping)
{
    BranchPredictor bp;
    bp.recordOutcome(true, true);
    bp.recordOutcome(false, false);
    bp.recordOutcome(true, false);
    EXPECT_EQ(bp.lookupCount(), 3u);
    EXPECT_EQ(bp.directionMissCount(), 1u);
    EXPECT_EQ(bp.targetMissCount(), 2u);
    EXPECT_NEAR(bp.directionAccuracy(), 2.0 / 3.0, 1e-12);
}

TEST(BranchPredictorDeath, NonPow2TablesRejected)
{
    BranchPredictor::Config cfg;
    cfg.bimodalEntries = 1000;
    EXPECT_THROW(BranchPredictor{cfg}, ConfigError);
}

} // namespace
} // namespace mcd
