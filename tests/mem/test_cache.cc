/** @file Tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "common/random.hh"
#include "mem/cache.hh"

namespace mcd
{
namespace
{

Cache::Config
smallCache(std::uint32_t size_kb = 4, std::uint32_t assoc = 2)
{
    return Cache::Config{"test", size_kb, assoc, 64};
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1010)); // same line
    EXPECT_EQ(c.missCount(), 1u);
    EXPECT_EQ(c.accessCount(), 3u);
}

TEST(Cache, DistinctLinesMissSeparately)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x0));
    EXPECT_FALSE(c.access(0x40));
    EXPECT_FALSE(c.access(0x80));
    EXPECT_EQ(c.missCount(), 3u);
}

TEST(Cache, LruEvictionOrder)
{
    // 2-way set: fill both ways, touch the first, then insert a third
    // line mapping to the same set; the least-recently-used way (the
    // second line) must be the victim.
    Cache c(smallCache(4, 2)); // 4 KB, 2-way, 64 B -> 32 sets
    const Addr set_stride = 32 * 64;
    const Addr a = 0x0, b = set_stride, d = 2 * set_stride;
    c.access(a);
    c.access(b);
    c.access(a); // a most recent
    c.access(d); // evicts b
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, DirectMappedConflicts)
{
    Cache c(smallCache(4, 1));
    const Addr set_stride = 64 * 64; // 64 sets
    c.access(0x0);
    c.access(set_stride); // same set, evicts
    EXPECT_FALSE(c.probe(0x0));
    EXPECT_TRUE(c.probe(set_stride));
}

TEST(Cache, ProbeDoesNotModify)
{
    Cache c(smallCache());
    c.access(0x0);
    const auto misses = c.missCount();
    EXPECT_FALSE(c.probe(0x4000000));
    EXPECT_EQ(c.missCount(), misses);
    EXPECT_EQ(c.accessCount(), 1u);
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache c(smallCache());
    c.access(0x0);
    c.access(0x40);
    c.flush();
    EXPECT_FALSE(c.probe(0x0));
    EXPECT_FALSE(c.probe(0x40));
}

TEST(Cache, MissRate)
{
    Cache c(smallCache());
    c.access(0x0); // miss
    c.access(0x0); // hit
    c.access(0x0); // hit
    c.access(0x40); // miss
    EXPECT_DOUBLE_EQ(c.missRate(), 0.5);
}

TEST(Cache, WorkingSetFitsMeansLowMissRate)
{
    // Property: a working set smaller than the cache converges to a
    // ~zero miss rate; one much larger keeps missing.
    auto steady_miss_rate = [](std::uint32_t cache_kb, Addr ws_bytes) {
        Cache c(smallCache(cache_kb, 2));
        Rng rng(3);
        // Warm up.
        for (int i = 0; i < 20000; ++i)
            c.access(rng.below(ws_bytes) & ~Addr(7));
        const auto warm_miss = c.missCount();
        const auto warm_acc = c.accessCount();
        for (int i = 0; i < 20000; ++i)
            c.access(rng.below(ws_bytes) & ~Addr(7));
        return static_cast<double>(c.missCount() - warm_miss) /
               static_cast<double>(c.accessCount() - warm_acc);
    };
    EXPECT_LT(steady_miss_rate(64, 16 * 1024), 0.01);
    EXPECT_GT(steady_miss_rate(4, 1024 * 1024), 0.8);
}

TEST(Cache, Table1Shapes)
{
    // The three Table 1 configurations must construct.
    Cache l1i(Cache::Config{"l1i", 64, 2, 64});
    Cache l1d(Cache::Config{"l1d", 64, 2, 64});
    Cache l2(Cache::Config{"l2", 1024, 1, 64});
    EXPECT_FALSE(l2.access(0x12345678));
    EXPECT_TRUE(l2.access(0x12345678));
}

TEST(CacheDeath, BadGeometry)
{
    EXPECT_THROW(Cache(Cache::Config{"bad", 0, 2, 64}), ConfigError);
    EXPECT_THROW(Cache(Cache::Config{"bad", 3, 2, 64}), ConfigError);
}

} // namespace
} // namespace mcd
