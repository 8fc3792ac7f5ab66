/** @file Tests for the register-dependence completion table. */

#include <gtest/gtest.h>

#include "arch/completion_table.hh"

namespace mcd
{
namespace
{

TEST(CompletionTable, PendingUntilComplete)
{
    CompletionTable ct(64);
    ct.beginInst(5, DomainId::Int);
    EXPECT_EQ(ct.readyTime(5, DomainId::Int, 0), maxTick);
    ct.complete(5, 1000);
    EXPECT_EQ(ct.readyTime(5, DomainId::Int, 0), 1000u);
}

TEST(CompletionTable, CrossDomainPenaltyApplied)
{
    CompletionTable ct(64);
    ct.beginInst(7, DomainId::LoadStore);
    ct.complete(7, 2000);
    // Same domain: no penalty.
    EXPECT_EQ(ct.readyTime(7, DomainId::LoadStore, 300), 2000u);
    // Cross domain: plus the synchronization penalty.
    EXPECT_EQ(ct.readyTime(7, DomainId::Int, 300), 2300u);
    EXPECT_EQ(ct.readyTime(7, DomainId::FrontEnd, 300), 2300u);
}

TEST(CompletionTable, CapacityIs1024UpToARobOf512)
{
    for (std::size_t rob : {1u, 80u, 160u, 511u, 512u})
        EXPECT_EQ(CompletionTable::capacityFor(rob), 1024u) << rob;
}

TEST(CompletionTable, CapacityCoversTwiceLargerRobs)
{
    // 2 * robSize, rounded up to a power of 2.
    EXPECT_EQ(CompletionTable::capacityFor(513), 2048u);
    EXPECT_EQ(CompletionTable::capacityFor(1024), 2048u);
    EXPECT_EQ(CompletionTable::capacityFor(1025), 4096u);
    EXPECT_EQ(CompletionTable::capacityFor(3000), 8192u);
}

TEST(CompletionTable, AncientSeqTreatedAsComplete)
{
    CompletionTable ct(64);
    // Sequence numbers never registered (or long evicted) read as
    // ready at time zero.
    EXPECT_EQ(ct.readyTime(3, DomainId::Int, 300), 0u);
}

TEST(CompletionTable, RingReusesSlots)
{
    CompletionTable ct(8);
    for (InstSeqNum s = 1; s <= 100; ++s) {
        ct.beginInst(s, DomainId::Int);
        ct.complete(s, Tick(s) * 10);
    }
    // Recent entries retain their times.
    EXPECT_EQ(ct.readyTime(100, DomainId::Int, 0), 1000u);
    EXPECT_EQ(ct.readyTime(95, DomainId::Int, 0), 950u);
    // Evicted ancient entries read as ready.
    EXPECT_EQ(ct.readyTime(10, DomainId::Int, 0), 0u);
}

TEST(CompletionTable, FutureCompletionTimeSupported)
{
    // Completion is recorded at issue with the (future) finish time;
    // readiness comparisons against "now" happen at the caller.
    CompletionTable ct(64);
    ct.beginInst(9, DomainId::Fp);
    ct.complete(9, 123456789);
    EXPECT_EQ(ct.readyTime(9, DomainId::Fp, 0), 123456789u);
}

TEST(CompletionTable, EpochAdvancesOnBeginAndComplete)
{
    CompletionTable ct(64);
    EXPECT_EQ(ct.epoch(), 0u);
    ct.beginInst(1, DomainId::Int);
    EXPECT_EQ(ct.epoch(), 1u);
    ct.complete(1, 500);
    EXPECT_EQ(ct.epoch(), 2u);
    ct.beginInst(2, DomainId::LoadStore);
    ct.beginInst(3, DomainId::Fp);
    EXPECT_EQ(ct.epoch(), 4u);
}

TEST(CompletionTable, EpochUnchangedByReads)
{
    CompletionTable ct(64);
    ct.beginInst(4, DomainId::Int);
    ct.complete(4, 700);
    const std::uint64_t before = ct.epoch();
    EXPECT_EQ(ct.readyTime(4, DomainId::Int, 300), 700u);
    EXPECT_EQ(ct.readyTime(4, DomainId::Fp, 300), 1000u);
    EXPECT_EQ(ct.readyTime(99, DomainId::Int, 300), 0u);
    EXPECT_EQ(ct.epoch(), before);
}

TEST(CompletionTableDeath, NonPow2CapacityRejected)
{
    EXPECT_DEATH(CompletionTable(100), "power of 2");
}

TEST(CompletionTableDeath, CompleteEvictedSeqPanics)
{
    CompletionTable ct(8);
    ct.beginInst(1, DomainId::Int);
    ct.beginInst(9, DomainId::Int); // evicts seq 1 (same slot)
    EXPECT_DEATH(ct.complete(1, 10), "evicted");
}

} // namespace
} // namespace mcd
