/**
 * @file
 * Exact-when-certain clock jitter (mcd/clock_domain.*): a domain
 * places each edge from a fast Box-Muller value and its error bound,
 * and recomputes the exact libm chain only when the bound cannot
 * decide the tick. These tests hold the fast kernels to the bound,
 * the bound check to the monotone tick map, and a jittered domain to
 * the ticks of the original per-value libm placement.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "mcd/clock_domain.hh"

namespace mcd
{
namespace
{

constexpr double kSigma = 3333.0; // ClockDomain::Config default, fs
constexpr double kClamp = 10000.0;

/** The half-width a default domain checks its fast values with. */
constexpr double kBound = boxMullerErrorBound * kSigma;

/** Largest |fast - exact| of @p fn over pairs (@p u1, @p u2). */
double
maxKernelError(BoxMullerKernel fn, std::vector<double> u1,
               std::vector<double> u2)
{
    // Pad to the kernel's multiple of 4 with a valid pair.
    while (u1.size() % 4 != 0) {
        u1.push_back(0.5);
        u2.push_back(0.5);
    }
    std::vector<double> out(2 * u1.size());
    fn(u1.data(), u2.data(), kSigma, out.data(), u1.size());
    double worst = 0.0;
    for (std::size_t k = 0; k < u1.size(); ++k) {
        double c, s;
        Rng::boxMuller(u1[k], u2[k], c, s);
        worst = std::max({worst, std::abs(out[2 * k] - kSigma * c),
                          std::abs(out[2 * k + 1] - kSigma * s)});
    }
    return worst;
}

TEST(BoundedJitter, KernelsStayWithinAThousandthOfTheBound)
{
    const auto variants = boxMullerVariants();
    ASSERT_FALSE(variants.empty());
    EXPECT_STREQ(variants.front().name, "baseline");
    constexpr std::size_t kChunk = 4096;
    constexpr std::size_t kPairsPerSeed = 2'500'000;
    for (const BoxMullerVariant &v : variants) {
        double worst = 0.0;
        for (std::uint64_t seed : {1, 2, 3, 0xC10C}) {
            Rng rng(seed);
            std::vector<double> u1(kChunk), u2(kChunk);
            for (std::size_t done = 0; done < kPairsPerSeed; done += kChunk) {
                for (std::size_t k = 0; k < kChunk; ++k)
                    rng.boxMullerUniforms(u1[k], u2[k]);
                worst = std::max(worst, maxKernelError(v.fn, u1, u2));
            }
        }
        EXPECT_LE(worst, kBound / 1000) << v.name;
        std::ostringstream text;
        text << worst;
        RecordProperty(std::string(v.name) + "_max_error_fs", text.str());
    }
}

TEST(BoundedJitter, KernelsStayWithinTheBoundAtRangeEdges)
{
    // u1 at the ends and the middle of what the stream draws; u2 at
    // the quadrant boundaries of 2 pi u2 and one ulp either side.
    const double tiny = 0x1p-53;
    std::vector<double> u2s;
    for (double q : {0.0, 0.25, 0.5, 0.75}) {
        u2s.push_back(q);
        u2s.push_back(std::nextafter(q, 1.0));
        if (q > 0.0)
            u2s.push_back(std::nextafter(q, 0.0));
    }
    u2s.push_back(1.0 - tiny);
    std::vector<double> u1, u2;
    for (double a : {tiny, 0.5, 1.0 - tiny}) {
        for (double b : u2s) {
            u1.push_back(a);
            u2.push_back(b);
        }
    }
    for (const BoxMullerVariant &v : boxMullerVariants())
        EXPECT_LE(maxKernelError(v.fn, u1, u2), kBound / 1000) << v.name;
}

/** Fast values within @p reach of @p at, and exact values within the
 *  bound of each: a decided tick is always the exact value's tick. */
std::size_t
checkDecisionsNear(Tick ideal, Tick floor_t, double at, double reach)
{
    std::size_t undecided = 0;
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
        const double fast = at + rng.uniform(-reach, reach);
        const double exact = fast + rng.uniform(-kBound, kBound);
        const std::optional<Tick> tick =
            boundedJitteredTick(ideal, floor_t, kClamp, fast, kBound);
        if (!tick) {
            ++undecided;
            continue;
        }
        EXPECT_EQ(*tick, jitteredTick(ideal, floor_t, kClamp, exact))
            << "fast " << fast << " exact " << exact;
    }
    return undecided;
}

TEST(BoundedJitter, TickBoundariesForceTheExactPath)
{
    constexpr Tick ideal = 1'000'000;
    const auto decide = [&](Tick floor_t, double fast) {
        return boundedJitteredTick(ideal, floor_t, kClamp, fast, kBound);
    };
    const double near = 0.4 * kBound;

    // An integer tick: ideal + 0 lies between the ends.
    EXPECT_EQ(decide(1, near), std::nullopt);
    EXPECT_EQ(decide(1, -near), std::nullopt);
    EXPECT_EQ(decide(1, 0.5), ideal);
    EXPECT_EQ(decide(1, -0.5), ideal - 1);

    // +clamp: values above it all give ideal + clamp, so only the
    // integer boundary at the clamp forces the exact path.
    EXPECT_EQ(decide(1, kClamp - near), std::nullopt);
    EXPECT_EQ(decide(1, kClamp + 2 * kBound), ideal + 10000);
    EXPECT_EQ(decide(1, 1e9), ideal + 10000);
    // -clamp: truncation puts ideal - clamp in its own tick, so the
    // nearest boundary is one tick up.
    EXPECT_EQ(decide(1, -kClamp + near), ideal - 10000);
    EXPECT_EQ(decide(1, -kClamp + 1 - near), std::nullopt);
    EXPECT_EQ(decide(1, -1e9), ideal - 10000);

    // floor_t: every value below floor_t + 1 gives floor_t, so a
    // fast value straddling floor_t is decided and one straddling
    // floor_t + 1 is not.
    constexpr Tick floor_t = ideal - 5000;
    EXPECT_EQ(decide(floor_t, -5000.0 + near), floor_t);
    EXPECT_EQ(decide(floor_t, -5000.0 - near), floor_t);
    EXPECT_EQ(decide(floor_t, -9000.0), floor_t);
    EXPECT_EQ(decide(floor_t, -4999.0 - near), std::nullopt);

    // Around each boundary, whatever the exact value within the
    // bound, a decided tick is its tick; some fast values there are
    // undecided.
    EXPECT_GT(checkDecisionsNear(ideal, 1, 0.0, 3 * kBound), 0u);
    EXPECT_GT(checkDecisionsNear(ideal, 1, kClamp, 3 * kBound), 0u);
    EXPECT_GT(checkDecisionsNear(ideal, 1, 1 - kClamp, 3 * kBound), 0u);
    EXPECT_EQ(checkDecisionsNear(ideal, floor_t, -5000.0, 3 * kBound), 0u);
    EXPECT_GT(checkDecisionsNear(ideal, floor_t, -4999.0, 3 * kBound), 0u);
}

/**
 * The placement before the fast path: one libm Box-Muller value per
 * edge, cos half first, drawn exactly as gaussian() drew it.
 */
class ReferenceJitteredClock
{
  public:
    ReferenceJitteredClock(std::uint64_t seed, Tick period)
        : rng(seed ^ (static_cast<std::uint64_t>(DomainId::Int) << 32)),
          period(period)
    {
        place(0);
    }

    Tick nextEdge() const { return nextActual; }
    void setPeriod(Tick p) { period = p; }

    void
    edge(Tick now)
    {
        lastIdeal = nextIdeal;
        place(now);
    }

  private:
    double
    gaussian()
    {
        if (haveCached) {
            haveCached = false;
            return cached;
        }
        double u1 = rng.uniform();
        double u2 = rng.uniform();
        while (u1 <= 1e-300)
            u1 = rng.uniform();
        const double r = std::sqrt(-2.0 * std::log(u1));
        const double theta = 2.0 * M_PI * u2;
        cached = r * std::sin(theta);
        haveCached = true;
        return r * std::cos(theta);
    }

    void
    place(Tick now)
    {
        nextIdeal = lastIdeal + period;
        const double j = std::clamp(0.0 + kSigma * gaussian(), -kClamp, kClamp);
        const Tick floor_t = std::max(now, lastIdeal) + 1;
        const double shifted = static_cast<double>(nextIdeal) + j;
        nextActual = shifted < static_cast<double>(floor_t)
                         ? floor_t
                         : static_cast<Tick>(shifted);
    }

    Rng rng;
    Tick period;
    double cached = 0.0;
    bool haveCached = false;
    Tick lastIdeal = 0;
    Tick nextIdeal = 0;
    Tick nextActual = 0;
};

TEST(BoundedJitter, DomainMatchesLibmPlacementOverTenMillionEdges)
{
    // Periods from 1 ns down to 4 ps, below the 10 ps clamp, so the
    // floor binds on many edges; changed every 997 edges.
    const Hertz freqs[] = {gigaHertz(1.0), gigaHertz(3.0), gigaHertz(100.0),
                           gigaHertz(250.0)};
    constexpr int kEdgesPerSeed = 2'500'000;
    std::uint64_t recomputes = 0;
    for (std::uint64_t seed : {1, 2, 3, 0xC10C}) {
        ClockDomain::Config cfg;
        cfg.id = DomainId::Int;
        cfg.jitterSeed = seed;
        Tick now = 0;
        ClockDomain dom(now, cfg);
        ReferenceJitteredClock ref(seed, dom.period());
        dom.start();
        for (int i = 0; i < kEdgesPerSeed; ++i) {
            ASSERT_EQ(dom.nextEdgeTime(), ref.nextEdge())
                << "seed " << seed << " edge " << i;
            now = dom.nextEdgeTime();
            dom.edge([&] {
                if (i % 997 == 0) {
                    const Hertz f = freqs[(i / 997) % std::size(freqs)];
                    dom.applyOperatingPoint(f, 1.0);
                    ref.setPeriod(periodFromFrequency(f));
                }
            });
            ref.edge(now);
        }
        recomputes += dom.jitterRecomputeCount();
    }
    // The fixed seeds reach the exact path; at the measured rate of
    // about 2 per 10^6 edges a zero here would mean it is dead code.
    EXPECT_GT(recomputes, 0u);
    RecordProperty("recomputes", std::to_string(recomputes));
}

} // namespace
} // namespace mcd
