/** @file Tests for the combined issue/interface queue. */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "arch/issue_queue.hh"

namespace mcd
{
namespace
{

DynInst
makeInst(InstSeqNum seq, Tick visible)
{
    DynInst inst;
    inst.seq = seq;
    inst.queueVisibleTime = visible;
    return inst;
}

TEST(IssueQueue, OccupancyAndCapacity)
{
    IssueQueue q("q", 3);
    DynInst a = makeInst(1, 0), b = makeInst(2, 0);
    EXPECT_TRUE(q.empty());
    q.insert(&a);
    q.insert(&b);
    EXPECT_EQ(q.occupancy(), 2u);
    EXPECT_FALSE(q.full());
    DynInst c = makeInst(3, 0);
    q.insert(&c);
    EXPECT_TRUE(q.full());
}

TEST(IssueQueue, VisibilityGatesScan)
{
    IssueQueue q("q", 4);
    DynInst a = makeInst(1, 100), b = makeInst(2, 50);
    q.insert(&a);
    q.insert(&b);

    std::vector<InstSeqNum> seen;
    q.forEachVisible(60, [&](DynInst *inst) {
        seen.push_back(inst->seq);
        return true;
    });
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], 2u); // only b is visible at t=60

    seen.clear();
    q.forEachVisible(100, [&](DynInst *inst) {
        seen.push_back(inst->seq);
        return true;
    });
    EXPECT_EQ(seen.size(), 2u);
}

TEST(IssueQueue, ScanIsOldestFirst)
{
    IssueQueue q("q", 4);
    DynInst a = makeInst(10, 0), b = makeInst(20, 0), c = makeInst(30, 0);
    q.insert(&a);
    q.insert(&b);
    q.insert(&c);
    std::vector<InstSeqNum> seen;
    q.forEachVisible(0, [&](DynInst *inst) {
        seen.push_back(inst->seq);
        return true;
    });
    EXPECT_EQ(seen, (std::vector<InstSeqNum>{10, 20, 30}));
}

TEST(IssueQueue, ScanStopsWhenCallbackReturnsFalse)
{
    IssueQueue q("q", 4);
    DynInst a = makeInst(1, 0), b = makeInst(2, 0);
    q.insert(&a);
    q.insert(&b);
    int visits = 0;
    q.forEachVisible(0, [&](DynInst *) {
        ++visits;
        return false;
    });
    EXPECT_EQ(visits, 1);
}

TEST(IssueQueue, EraseRemovesSpecificEntry)
{
    IssueQueue q("q", 4);
    DynInst a = makeInst(1, 0), b = makeInst(2, 0), c = makeInst(3, 0);
    q.insert(&a);
    q.insert(&b);
    q.insert(&c);
    q.erase(&b);
    std::vector<InstSeqNum> seen;
    q.forEachVisible(0, [&](DynInst *inst) {
        seen.push_back(inst->seq);
        return true;
    });
    EXPECT_EQ(seen, (std::vector<InstSeqNum>{1, 3}));
}

TEST(IssueQueue, MaxOccupancyHighWaterMark)
{
    IssueQueue q("q", 8);
    DynInst insts[5];
    for (int i = 0; i < 5; ++i) {
        insts[i] = makeInst(i + 1, 0);
        q.insert(&insts[i]);
    }
    q.erase(&insts[0]);
    q.erase(&insts[1]);
    EXPECT_EQ(q.maxOccupancy(), 5u);
}

TEST(IssueQueue, ClearEmpties)
{
    IssueQueue q("q", 4);
    DynInst a = makeInst(1, 0);
    q.insert(&a);
    q.clear();
    EXPECT_TRUE(q.empty());
}

/** Sequence numbers of every entry, oldest first. */
std::vector<InstSeqNum>
contents(const IssueQueue &q)
{
    std::vector<InstSeqNum> seen;
    q.forEach([&](DynInst *inst) {
        seen.push_back(inst->seq);
        return true;
    });
    return seen;
}

TEST(IssueQueue, ForEachIncludesInvisibleEntries)
{
    IssueQueue q("q", 4);
    DynInst a = makeInst(1, 500), b = makeInst(2, 0);
    q.insert(&a);
    q.insert(&b);
    EXPECT_EQ(contents(q), (std::vector<InstSeqNum>{1, 2}));
}

TEST(IssueQueue, RingWrapsAroundKeepingOrder)
{
    // Retire from the head and refill at the tail many times over, so
    // the live window crosses the end of the slot array repeatedly.
    IssueQueue q("q", 3);
    std::vector<DynInst> insts(12);
    for (std::size_t i = 0; i < insts.size(); ++i)
        insts[i] = makeInst(i + 1, 0);
    q.insert(&insts[0]);
    q.insert(&insts[1]);
    for (std::size_t next = 2; next < insts.size(); ++next) {
        q.insert(&insts[next]);
        EXPECT_TRUE(q.full());
        EXPECT_EQ(contents(q), (std::vector<InstSeqNum>{next - 1, next,
                                                         next + 1}));
        q.erase(&insts[next - 2]);
    }
    EXPECT_EQ(q.occupancy(), 2u);
}

TEST(IssueQueue, EraseFromMiddleKeepsOldestFirstOrder)
{
    // Erase near the head (the older side closes the gap) and near
    // the tail (the younger side does), across a wrapped window.
    IssueQueue q("q", 6);
    std::vector<DynInst> insts(10);
    for (std::size_t i = 0; i < insts.size(); ++i)
        insts[i] = makeInst(i + 1, 0);
    for (std::size_t i = 0; i < 4; ++i)
        q.insert(&insts[i]);
    q.erase(&insts[0]);
    q.erase(&insts[1]); // head now mid-array
    for (std::size_t i = 4; i < 8; ++i)
        q.insert(&insts[i]); // window wraps: seqs 3..8
    EXPECT_EQ(contents(q), (std::vector<InstSeqNum>{3, 4, 5, 6, 7, 8}));

    q.erase(&insts[3]); // second oldest
    EXPECT_EQ(contents(q), (std::vector<InstSeqNum>{3, 5, 6, 7, 8}));
    q.erase(&insts[6]); // second youngest
    EXPECT_EQ(contents(q), (std::vector<InstSeqNum>{3, 5, 6, 8}));
    q.erase(&insts[4]); // middle
    EXPECT_EQ(contents(q), (std::vector<InstSeqNum>{3, 6, 8}));

    q.insert(&insts[8]);
    q.insert(&insts[9]);
    EXPECT_EQ(contents(q), (std::vector<InstSeqNum>{3, 6, 8, 9, 10}));
}

TEST(IssueQueue, EraseAtRemovesAnySetOfPositionsInOrder)
{
    // Every head offset, every occupancy and every set of positions of
    // a capacity-8 ring: the survivors keep their order, and the ring
    // stays consistent for a refill to capacity.
    constexpr std::uint32_t cap = 8;
    std::vector<DynInst> insts(2 * cap + cap);
    for (std::size_t i = 0; i < insts.size(); ++i)
        insts[i] = makeInst(i + 1, 0);
    for (std::uint32_t offset = 0; offset < cap; ++offset) {
        for (std::uint32_t n = 1; n <= cap; ++n) {
            for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
                IssueQueue q("q", cap);
                for (std::uint32_t i = 0; i < offset; ++i) {
                    q.insert(&insts[i]);
                    q.erase(&insts[i]); // move the head to offset
                }
                std::vector<InstSeqNum> want;
                std::vector<std::uint32_t> pos;
                for (std::uint32_t i = 0; i < n; ++i) {
                    q.insert(&insts[cap + i]);
                    if ((mask >> i) & 1u)
                        pos.push_back(i);
                    else
                        want.push_back(cap + i + 1);
                }
                q.eraseAt(pos.data(), static_cast<unsigned>(pos.size()));
                ASSERT_EQ(contents(q), want)
                    << "offset " << offset << " n " << n << " mask " << mask;
                for (std::uint32_t i = 0; !q.full(); ++i) {
                    q.insert(&insts[2 * cap + i]);
                    want.push_back(2 * cap + i + 1);
                }
                ASSERT_EQ(contents(q), want)
                    << "refill: offset " << offset << " n " << n << " mask "
                    << mask;
            }
        }
    }
}

TEST(IssueQueue, FullEmptyCycle)
{
    IssueQueue q("q", 2);
    DynInst a = makeInst(1, 0), b = makeInst(2, 0), c = makeInst(3, 0);
    for (int round = 0; round < 3; ++round) {
        EXPECT_TRUE(q.empty());
        EXPECT_FALSE(q.full());
        q.insert(&a);
        q.insert(&b);
        EXPECT_TRUE(q.full());
        EXPECT_FALSE(q.empty());
        q.erase(&b);
        q.insert(&c);
        EXPECT_EQ(contents(q), (std::vector<InstSeqNum>{1, 3}));
        q.erase(&a);
        q.erase(&c);
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.maxOccupancy(), 2u);
}

TEST(IssueQueue, MaxOccupancySurvivesClear)
{
    IssueQueue q("q", 4);
    DynInst insts[3];
    for (int i = 0; i < 3; ++i) {
        insts[i] = makeInst(i + 1, 0);
        q.insert(&insts[i]);
    }
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.maxOccupancy(), 3u);
    q.insert(&insts[0]);
    EXPECT_EQ(contents(q), (std::vector<InstSeqNum>{1}));
    EXPECT_EQ(q.maxOccupancy(), 3u);
}

TEST(IssueQueueDeath, OverflowPanics)
{
    IssueQueue q("q", 1);
    DynInst a = makeInst(1, 0), b = makeInst(2, 0);
    q.insert(&a);
    EXPECT_DEATH(q.insert(&b), "overflow");
}

TEST(IssueQueueDeath, EraseAbsentPanics)
{
    IssueQueue q("q", 2);
    DynInst a = makeInst(1, 0);
    EXPECT_DEATH(q.erase(&a), "absent");
}

} // namespace
} // namespace mcd
