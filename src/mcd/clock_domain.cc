#include "mcd/clock_domain.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/check.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "obs/debug_flags.hh"
#include "obs/stats_registry.hh"
#include "obs/trace_sink.hh"

namespace mcd
{

const char *
domainName(DomainId id)
{
    switch (id) {
      case DomainId::FrontEnd: return "frontend";
      case DomainId::Int: return "int";
      case DomainId::Fp: return "fp";
      case DomainId::LoadStore: return "ls";
      case DomainId::Fetch: return "fetch";
    }
    panic("unknown domain id %d", static_cast<int>(id));
}

namespace
{

// GCC vector extensions: four lanes, one AVX2 register or two SSE2
// ones. A cast between same-size vector types reinterprets the bits.
using V4d = double __attribute__((vector_size(32)));
using V4u = std::uint64_t __attribute__((vector_size(32)));

// The helpers take and give vectors by reference: a 32-byte vector
// passed by value has a different ABI with and without AVX.

/** @p x = sqrt(@p x), lane by lane. */
[[gnu::always_inline]] inline void
sqrt4(V4d &x)
{
#if defined(__x86_64__)
    // SSE2 is in every x86-64 target, so both kernels can use it;
    // the lane-wise libm sqrt would check errno per lane.
    const __m128d lo = _mm_sqrt_pd(_mm_set_pd(x[1], x[0]));
    const __m128d hi = _mm_sqrt_pd(_mm_set_pd(x[3], x[2]));
    x = V4d{lo[0], lo[1], hi[0], hi[1]};
#else
    for (std::size_t i = 0; i < 4; ++i)
        x[i] = std::sqrt(x[i]);
#endif
}

/** @p p = @p c[0] + c[1] w + c[2] w^2 + ..., by Horner's rule. */
template <std::size_t N>
[[gnu::always_inline]] inline void
horner(const V4d &w, const double (&c)[N], V4d &p)
{
    p = V4d{} + c[N - 1];
    for (std::size_t i = N - 1; i-- > 0;)
        p = p * w + c[i];
}

// Taylor coefficients. On the reduced ranges below, the first omitted
// term is under 3e-18 of the value, far below a double's rounding.
constexpr double kAtanhSeries[] = {1.0,        1.0 / 3,  1.0 / 5,  1.0 / 7,
                                   1.0 / 9,    1.0 / 11, 1.0 / 13, 1.0 / 15,
                                   1.0 / 17,   1.0 / 19, 1.0 / 21};
constexpr double kSinSeries[] = {
    1.0,          -1.0 / 6,         1.0 / 120,         -1.0 / 5040,
    1.0 / 362880, -1.0 / 39916800,  1.0 / 6227020800,  -1.0 / 1307674368000,
    1.0 / 355687428096000};
constexpr double kCosSeries[] = {
    1.0,           -1.0 / 2,          1.0 / 24,          -1.0 / 720,
    1.0 / 40320,   -1.0 / 3628800,    1.0 / 479001600,   -1.0 / 87178291200,
    1.0 / 20922789888000};

/**
 * The BoxMullerKernel body, compiled once per target below.
 *
 * log(u1): u1 = m * 2^e with m in [sqrt(1/2), sqrt(2)), and
 * log(m) = 2 atanh(s), s = (m - 1) / (m + 1), |s| <= 0.172.
 * cos/sin(2 pi u2): 4 u2 = q + t exactly, q the nearest integer, so
 * 2 pi u2 = q pi/2 + x with x = t pi/2 in [-pi/4, pi/4]; the quadrant
 * q swaps and negates the polynomial halves.
 */
[[gnu::always_inline]] inline void
boxMullerBody(const double *u1, const double *u2, double scale, double *out,
              std::size_t pairs)
{
    constexpr std::uint64_t kMantissa = 0x000fffffffffffffull;
    constexpr std::uint64_t kOne = 0x3ff0000000000000ull;
    constexpr std::uint64_t kExpOne = 1ull << 52;
    constexpr double kSqrt2 = 1.4142135623730951;
    // ln 2 = kLn2Hi + kLn2Lo; kLn2Hi ends in zero bits, so e * kLn2Hi
    // is exact for every exponent e.
    constexpr double kLn2Hi = 6.93147180369123816490e-01;
    constexpr double kLn2Lo = 1.90821492927058770002e-10;
    constexpr double kRound = 0x1.8p52; // x + kRound - kRound rounds x
    constexpr double kPiOver2 = 1.5707963267948966;
    for (std::size_t k = 0; k < pairs; k += 4) {
        V4d a, b;
        std::memcpy(&a, u1 + k, sizeof a);
        std::memcpy(&b, u2 + k, sizeof b);

        const V4u bits = (V4u)a;
        V4u mbits = (bits & kMantissa) | kOne; // m in [1, 2)
        V4u ebits = bits >> 52;                // biased exponent; a > 0
        const V4u big = (V4u)((V4d)mbits >= kSqrt2);
        mbits -= big & kExpOne; // m / 2
        ebits -= big;           // e + 1
        const V4d m = (V4d)mbits;
        // 2^52 + ebits as a double, less 2^52: ebits, exactly.
        const V4d e = ((V4d)(ebits | 0x4330000000000000ull) - 0x1p52) - 1023.0;
        const V4d s = (m - 1.0) / (m + 1.0);
        V4d atanh_s;
        horner(s * s, kAtanhSeries, atanh_s);
        const V4d log_a = e * kLn2Hi + (e * kLn2Lo + 2.0 * s * atanh_s);
        V4d r = -2.0 * log_a;
        sqrt4(r);
        r *= scale;

        const V4d t4 = b * 4.0;
        const V4d qr = t4 + kRound;
        const V4u q = (V4u)qr; // low bits: the quadrant
        const V4d x = (t4 - (qr - kRound)) * kPiOver2;
        const V4d z = x * x;
        V4d sin_p, cos_p;
        horner(z, kSinSeries, sin_p);
        horner(z, kCosSeries, cos_p);
        const V4u sin_x = (V4u)(x * sin_p);
        const V4u cos_x = (V4u)cos_p;
        // Odd quadrants swap the halves; cos is negative in quadrants
        // 1 and 2, sin in 2 and 3 (bit 1 of q + 1 and of q, moved to
        // the sign bit).
        const V4u odd = -(q & 1u);
        const V4u c =
            ((cos_x & ~odd) | (sin_x & odd)) ^ (((q + 1u) & 2u) << 62);
        const V4u sn = ((sin_x & ~odd) | (cos_x & odd)) ^ ((q & 2u) << 62);
        const V4d rc = r * (V4d)c;
        const V4d rs = r * (V4d)sn;
        for (std::size_t i = 0; i < 4; ++i) {
            out[2 * (k + i)] = rc[i];
            out[2 * (k + i) + 1] = rs[i];
        }
    }
}

void
boxMullerBaseline(const double *u1, const double *u2, double scale,
                  double *out, std::size_t pairs)
{
    boxMullerBody(u1, u2, scale, out, pairs);
}

#if defined(__x86_64__)
[[gnu::target("avx2,fma")]] void
boxMullerAvx2(const double *u1, const double *u2, double scale, double *out,
              std::size_t pairs)
{
    boxMullerBody(u1, u2, scale, out, pairs);
}
#endif

/** The kernel jitter refills use, chosen once per process. */
BoxMullerKernel
refillKernel()
{
    static const BoxMullerKernel fn = boxMullerVariants().back().fn;
    return fn;
}

} // namespace

std::vector<BoxMullerVariant>
boxMullerVariants()
{
    std::vector<BoxMullerVariant> v{{"baseline", boxMullerBaseline}};
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        v.push_back({"avx2-fma", boxMullerAvx2});
#endif
    return v;
}

/** Queue-bound adapter: one edge, then the next edge's event. */
class ClockDomain::EdgeEvent : public Event
{
  public:
    EdgeEvent(ClockDomain &domain, EventQueue &queue)
        : Event(static_cast<int>(domain.id())), dom(domain), eq(queue)
    {}

    void
    process() override
    {
        dom.edge(work);
        eq.schedule(this, dom.nextEdgeTime());
    }

    const char *name() const override { return "clock-edge"; }

    ClockDomain &dom;
    EventQueue &eq;
    std::function<void()> work = [] {};
};

ClockDomain::ClockDomain(const Tick &now, const Config &config)
    : curTick(now), cfg(config), hz(config.initialHz),
      volts(config.initialVolt),
      jitter(config.jitterSeed ^
             (static_cast<std::uint64_t>(config.id) << 32))
{
    if (!(hz > 0.0))
        configError("clock-domain", "domain %s: non-positive initial frequency",
                    name());
    periodTicks = periodFromFrequency(hz);
    MCDSIM_INVARIANT(periodTicks > 0,
                     "domain %s: initial frequency %g Hz yields a zero-tick "
                     "period", name(), hz);
    jitterBound = boxMullerErrorBound * std::abs(cfg.jitterSigmaFs);
}

ClockDomain::ClockDomain(EventQueue &queue, const Config &config)
    : ClockDomain(queue.now(), config)
{
    edgeEvent = std::make_unique<EdgeEvent>(*this, queue);
}

ClockDomain::~ClockDomain() = default;

void
ClockDomain::start()
{
    MCDSIM_CHECK(!started, "domain %s started twice", name());
    started = true;
    lastIdealEdge = curTick;
    lastVoltAccrual = curTick;
    nextIdealEdge = lastIdealEdge + periodTicks;
    nextActualEdge = nextIdealEdge;
    if (cfg.jitterEnabled) {
        // The stream's first pair, exactly: the cos half places this
        // edge and the sin half is carried into the first block, which
        // the first edge refills inside the run.
        nextActualEdge =
            jitteredTick(nextIdealEdge, jitterFloor(), jitterClamp(),
                         jitter.gaussian(0.0, cfg.jitterSigmaFs));
        jitterBlock[jitterBlockSize] = jitter.gaussian(0.0, cfg.jitterSigmaFs);
    }
}

void
ClockDomain::start(std::function<void()> on_edge)
{
    MCDSIM_CHECK(edgeEvent, "domain %s is not queue-bound", name());
    start();
    if (on_edge)
        edgeEvent->work = std::move(on_edge);
    edgeEvent->eq.schedule(edgeEvent.get(), nextActualEdge);
}

void
ClockDomain::refillJitter()
{
    jitterBlock[0] = jitterBlock[jitterBlockSize];
    for (std::size_t k = 0; k < jitterPairs; ++k)
        jitter.boxMullerUniforms(jitterU1[k], jitterU2[k]);
    refillKernel()(jitterU1.data(), jitterU2.data(), cfg.jitterSigmaFs,
                   &jitterBlock[1], jitterPairs);
    jitterBlock[jitterBlockSize] = exactJitter(jitterBlockSize);
    jitterNext = 0;
}

double
ClockDomain::exactJitter(std::size_t slot) const
{
    if (slot == 0)
        return jitterBlock[0];
    const std::size_t pair = (slot - 1) / 2;
    double c, s;
    Rng::boxMuller(jitterU1[pair], jitterU2[pair], c, s);
    // As gaussian(0, sigma) scales the deviate.
    return 0.0 + cfg.jitterSigmaFs * ((slot - 1) % 2 == 0 ? c : s);
}

Tick
ClockDomain::exactJitteredTick(std::size_t slot)
{
    ++jitterRecomputes;
    return jitteredTick(nextIdealEdge, jitterFloor(), jitterClamp(),
                        exactJitter(slot));
}

void
ClockDomain::checkDecidedTick(std::size_t slot, Tick tick) const
{
    MCDSIM_DCHECK_EQ(tick,
                     jitteredTick(nextIdealEdge, jitterFloor(), jitterClamp(),
                                  exactJitter(slot)),
                     "domain %s: jitter bound decided the wrong tick",
                     name());
}

void
ClockDomain::traceEdge()
{
    edgeTrace->clockEdge(curTick, cfg.id, cycles);
}

void
ClockDomain::applyOperatingPoint(Hertz f, Volt v)
{
    MCDSIM_CHECK(f > 0.0, "domain %s: non-positive frequency", name());
    MCDSIM_TRACE(obs::DebugFlag::ClockDomain,
                 "t=%llu %s operating point %.4f GHz %.3f V",
                 static_cast<unsigned long long>(curTick), name(), f / 1e9,
                 v);
    accrueVoltageTime();
    hz = f;
    volts = v;
    ++opChanges;
    if (trace) [[unlikely]]
        trace->operatingPoint(curTick, cfg.id, hz, volts);
    periodTicks = periodFromFrequency(f);
    // A zero-tick period would wedge the event loop at a single
    // instant, re-scheduling edges forever without advancing time.
    MCDSIM_INVARIANT(periodTicks > 0,
                     "domain %s: frequency %g Hz yields a zero-tick period",
                     name(), f);
    // The already-scheduled next edge keeps its time (the old period
    // was in force when it was launched); the new period applies from
    // the edge after it, which matches hardware where the new clock
    // settles on the next cycle boundary.
}

void
ClockDomain::registerStats(obs::StatsRegistry &reg,
                           const std::string &prefix) const
{
    reg.addIntCallback(prefix + ".cycles", "clock edges since start",
                       [this] { return cycles; });
    reg.addCallback(prefix + ".freq_ghz", "frequency at dump time, GHz",
                    [this] { return hz / 1e9; });
    reg.addCallback(prefix + ".volt", "supply voltage at dump time",
                    [this] { return volts; });
    reg.addIntCallback(prefix + ".op_changes",
                       "operating-point changes applied",
                       [this] { return opChanges; });
}

void
ClockDomain::attachTrace(obs::TraceSink *sink)
{
    trace = sink && sink->enabled() ? sink : nullptr;
    edgeTrace = trace && trace->wantsClockEdges() ? trace : nullptr;
}

} // namespace mcd
