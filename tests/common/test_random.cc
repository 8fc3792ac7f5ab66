/** @file Tests for the deterministic Xoshiro256** generator. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>

#include "common/random.hh"

namespace mcd
{
namespace
{

TEST(Random, SameSeedSameSequence)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Random, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Random, UniformMeanAndVariance)
{
    Rng rng(11);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        sum += u;
        sq += u * u;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.5, 0.005);
    EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Random, BelowStaysBelow)
{
    Rng rng(3);
    for (int i = 0; i < 100000; ++i)
        ASSERT_LT(rng.below(17), 17u);
}

TEST(Random, BelowCoversAllValues)
{
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Random, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 20000; ++i) {
        const auto v = rng.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Random, GaussianMoments)
{
    Rng rng(13);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.01);
    EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(Random, GaussianScaled)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(5.0, 2.0);
    EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, GaussianStreamIsPinned)
{
    // The bits of gaussian() draws 0, 1, 63, 64 and 127: both halves
    // of a Box-Muller pair, and the draws on either side of a 64-value
    // jitter block boundary. Clock jitter reads this stream, so these
    // bits are part of every jittered run's results.
    struct Pin
    {
        std::uint64_t seed;
        std::uint64_t bits[5];
    };
    constexpr int draws[5] = {0, 1, 63, 64, 127};
    constexpr Pin pins[] = {
        {1,
         {0xbfeaa5d15d61bbdeull, 0xbfbb868742fbcb43ull, 0xbfd43e9d47ab9ce9ull,
          0x3fec9b1f67785abfull, 0x3fa1733a503a66fcull}},
        {0xC10C,
         {0xbfc4cbdbdce0660full, 0x3fe995dfccf83f76ull, 0x3fc746876000d823ull,
          0xbff947f9245a77a4ull, 0xbfecaad8a9aec89cull}},
    };
    for (const Pin &pin : pins) {
        Rng rng(pin.seed);
        int next = 0;
        for (int i = 0; i <= draws[4]; ++i) {
            const double g = rng.gaussian();
            if (i == draws[next]) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(g), pin.bits[next])
                    << "seed " << pin.seed << " draw " << i;
                ++next;
            }
        }
    }
}

TEST(Random, GeometricMean)
{
    Rng rng(19);
    // Mean of geometric (failures before success) with p is (1-p)/p.
    const double p = 0.25;
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(p));
    EXPECT_NEAR(sum / n, (1.0 - p) / p, 0.1);
}

TEST(Rng, GeometricWithLogMatchesPlain)
{
    // The caller-supplied logarithm changes neither the draws nor the
    // values: twin generators stay in lockstep for 10^6 draws per p.
    for (double p : {0.5, 1.0 / 1.5, 1.0 / 6.0, 1.0 / 40.0}) {
        Rng plain(29);
        Rng with_log(29);
        const double log1m_p = std::log1p(-p);
        for (int i = 0; i < 1000000; ++i) {
            const std::uint64_t want = plain.geometric(p);
            const std::uint64_t got = with_log.geometric(p, log1m_p);
            if (got != want) {
                ADD_FAILURE() << "p " << p << " draw " << i << ": " << got
                              << " != " << want;
                break;
            }
        }
        EXPECT_EQ(plain.next(), with_log.next()) << "p " << p;
    }
}

TEST(Random, GeometricDegenerateP)
{
    Rng rng(21);
    EXPECT_EQ(rng.geometric(1.0), 0u);
    EXPECT_EQ(rng.geometric(1.5), 0u);
}

TEST(Random, ChanceExtremes)
{
    Rng rng(23);
    for (int i = 0; i < 1000; ++i) {
        ASSERT_FALSE(rng.chance(0.0));
        ASSERT_TRUE(rng.chance(1.0));
    }
}

TEST(Random, ForkIndependentOfParentConsumption)
{
    // fork(key) must not disturb the parent stream.
    Rng a(99);
    Rng b(99);
    (void)a.fork(1);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Random, ForkKeysDiffer)
{
    Rng parent(7);
    Rng c1 = parent.fork(1);
    Rng c2 = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        if (c1.next() == c2.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

} // namespace
} // namespace mcd
