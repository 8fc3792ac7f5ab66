/**
 * @file
 * Deterministic random-number generation for mcdsim.
 *
 * Every stochastic component (clock jitter, workload generators) draws
 * from its own seeded Xoshiro256** stream so runs are reproducible
 * bit-for-bit and components never perturb one another's sequences.
 */

#ifndef MCDSIM_COMMON_RANDOM_HH
#define MCDSIM_COMMON_RANDOM_HH

#include <cmath>
#include <cstdint>

namespace mcd
{

namespace detail
{

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace detail

/**
 * Xoshiro256** pseudo-random generator (Blackman & Vigna).
 *
 * Small, fast, and of far higher quality than std::minstd;
 * deliberately not std::mt19937 so state stays 32 bytes and copies are
 * cheap (generators are embedded by value in many components).
 */
class Rng
{
  public:
    /** Seed via SplitMix64 expansion of @p seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit output. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = detail::rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;

        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = detail::rotl(state[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 high bits -> double in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

    /** Uniform integer in [0, n). @p n must be nonzero. */
    std::uint64_t below(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /**
     * Standard normal deviate (Box-Muller with caching): the cos half
     * of a fresh pair, then its sin half on the next call.
     */
    double
    gaussian()
    {
        if (haveCachedGaussian) {
            haveCachedGaussian = false;
            return cachedGaussian;
        }
        double u1, u2, c;
        boxMullerUniforms(u1, u2);
        boxMuller(u1, u2, c, cachedGaussian);
        haveCachedGaussian = true;
        return c;
    }

    /**
     * The two uniforms of one Box-Muller pair, as gaussian() draws
     * them: @p u1 then @p u2, then @p u1 again until it exceeds 1e-300
     * (so its log is finite).
     */
    void
    boxMullerUniforms(double &u1, double &u2)
    {
        u1 = uniform();
        u2 = uniform();
        while (u1 <= 1e-300)
            u1 = uniform();
    }

    /**
     * The Box-Muller pair of @p u1 and @p u2 through libm: @p c and
     * @p s are the cos and sin halves. gaussian() returns these bits.
     */
    static void
    boxMuller(double u1, double u2, double &c, double &s)
    {
        const double r = std::sqrt(-2.0 * std::log(u1));
        const double theta = 2.0 * M_PI * u2;
        c = r * std::cos(theta);
        s = r * std::sin(theta);
    }

    /** Normal deviate with given mean and standard deviation. */
    double
    gaussian(double mean, double sigma)
    {
        return mean + sigma * gaussian();
    }

    /** Bernoulli trial with success probability @p p. */
    bool chance(double p);

    /**
     * Geometric deviate: number of failures before the first success
     * with per-trial success probability @p p (so the mean is
     * (1-p)/p). Returns 0 for p >= 1.
     */
    std::uint64_t geometric(double p);

    /**
     * geometric(p) with the caller's @p log1m_p == std::log1p(-p), for
     * a caller that draws many times with one p. Same draws, same
     * values.
     */
    std::uint64_t geometric(double p, double log1m_p);

    /** Fork an independent stream keyed by @p key. */
    Rng fork(std::uint64_t key) const;

  private:
    std::uint64_t state[4];
    double cachedGaussian = 0.0;
    bool haveCachedGaussian = false;
};

} // namespace mcd

#endif // MCDSIM_COMMON_RANDOM_HH
