#include "common/random.hh"

#include <cmath>

#include "common/check.hh"

namespace mcd
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : state)
        s = splitmix64(sm);
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    MCDSIM_CHECK(n > 0, "Rng::below(0)");
    // Lemire-style rejection-free multiply-shift is fine here; the
    // bias for n << 2^64 is negligible for simulation purposes.
    return static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(next()) * n) >> 64);
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    MCDSIM_CHECK(lo <= hi, "Rng::range with lo > hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

std::uint64_t
Rng::geometric(double p)
{
    return geometric(p, std::log1p(-p));
}

std::uint64_t
Rng::geometric(double p, double log1m_p)
{
    if (p >= 1.0)
        return 0;
    if (p <= 0.0)
        return 0;
    double u = uniform();
    while (u <= 1e-300)
        u = uniform();
    return static_cast<std::uint64_t>(std::log(u) / log1m_p);
}

Rng
Rng::fork(std::uint64_t key) const
{
    // Derive a child seed from the current state and the key without
    // disturbing this generator's own sequence.
    std::uint64_t mix = state[0] ^ detail::rotl(state[3], 23) ^ key;
    return Rng(splitmix64(mix));
}

} // namespace mcd
