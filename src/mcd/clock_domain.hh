/**
 * @file
 * GALS clock domains (paper Section 2, Figure 1).
 *
 * The processor is partitioned into four domains — front end, integer
 * core, floating-point core, and load/store unit — each with an
 * independently generated clock whose frequency and voltage the DVFS
 * machinery can change at run time. Main memory is an external
 * asynchronous agent and has no domain object.
 *
 * A domain computes its own next edge, always from the *current*
 * period, so an operating-point change simply stretches or shrinks
 * subsequent cycles. Optional per-edge clock jitter (Table 1: +-10 ps,
 * normally distributed) perturbs edge times without accumulating
 * drift. Its owner decides when the edge fires: McdProcessor picks the
 * earliest of its domains' next edges and its sampler's next tick
 * (earliestSlot() below); a stand-alone domain can instead put its
 * edges on an EventQueue.
 */

#ifndef MCDSIM_MCD_CLOCK_DOMAIN_HH
#define MCDSIM_MCD_CLOCK_DOMAIN_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "dvfs/dvfs_driver.hh"
#include "sim/event_queue.hh"

namespace mcd
{

namespace obs
{
class StatsRegistry;
class TraceSink;
} // namespace obs

/**
 * On-chip clock domains. The default configuration is the 4-domain
 * Semeraro et al. partition (front end, INT, FP, LS); the optional
 * 5-domain Iyer & Marculescu partition (paper Section 2) additionally
 * splits instruction fetch into its own domain, leaving FrontEnd as
 * the rename/dispatch/retire domain.
 */
enum class DomainId : std::uint8_t
{
    FrontEnd = 0, ///< rename/dispatch/retire (plus fetch in 4-domain mode)
    Int = 1,
    Fp = 2,
    LoadStore = 3,
    Fetch = 4, ///< only instantiated in the 5-domain partition
};

/** Maximum number of on-chip domains (5-domain partition). */
constexpr std::size_t numDomains = 5;

/** Short domain name for reports. */
const char *domainName(DomainId id);

/**
 * Next-event table of an MCD processor: slot d holds the next edge of
 * domain d (maxTick for a domain the partition lacks) and the last
 * slot, samplerSlot, the DVFS sampler's next tick.
 */
using SlotTimes = std::array<Tick, numDomains + 1>;
constexpr std::size_t samplerSlot = numDomains;

/**
 * The slot that fires next: the earliest time, ties going to the
 * lower slot. This is the (when, priority) order an EventQueue gives
 * edges queued at priority = domain id and a sampler queued after
 * every edge. A fired slot always moves past the current tick, so the
 * table never needs the queue's insertion-order tie-break.
 */
inline std::size_t
earliestSlot(const SlotTimes &times)
{
    // Branch-free: which slot wins changes from event to event, so a
    // compare-and-branch scan would mispredict about once per event.
    Tick first = times[0];
    for (std::size_t s = 1; s < times.size(); ++s)
        first = std::min(first, times[s]);
    unsigned at_first = 0;
    for (std::size_t s = 0; s < times.size(); ++s)
        at_first |= static_cast<unsigned>(times[s] == first) << s;
    return static_cast<std::size_t>(std::countr_zero(at_first));
}

/**
 * Tick of a jittered edge: the ideal time @p ideal plus jitter @p j
 * clamped to +-@p clamp, truncated to a whole tick, and never before
 * @p floor_t. Clamping, IEEE addition and truncation are each
 * monotone, so the tick is monotone non-decreasing in @p j. Ticks
 * stay below 2^63 and convert through std::int64_t, which gives the
 * same values as unsigned conversion without its branches.
 */
inline Tick
jitteredTick(Tick ideal, Tick floor_t, double clamp, double j)
{
    const auto as_double = [](Tick t) {
        return static_cast<double>(static_cast<std::int64_t>(t));
    };
    const double shifted = as_double(ideal) + std::clamp(j, -clamp, clamp);
    return shifted < as_double(floor_t)
               ? floor_t
               : static_cast<Tick>(static_cast<std::int64_t>(shifted));
}

/**
 * Tick of a jitter value known only to lie within +-@p bound of
 * @p fast: since jitteredTick() is monotone, when both ends of the
 * interval give the same tick every value in it does. Empty when the
 * ends disagree, and only the exact value can decide.
 */
inline std::optional<Tick>
boundedJitteredTick(Tick ideal, Tick floor_t, double clamp, double fast,
                    double bound)
{
    const Tick lo = jitteredTick(ideal, floor_t, clamp, fast - bound);
    const Tick hi = jitteredTick(ideal, floor_t, clamp, fast + bound);
    if (lo != hi) [[unlikely]]
        return std::nullopt;
    return lo;
}

/**
 * Fast Box-Muller over @p pairs uniform pairs, a multiple of 4:
 * out[2k] and out[2k + 1] are @p scale times the cos and sin halves
 * that Rng::boxMuller(u1[k], u2[k]) gives, to within
 * boxMullerErrorBound * |scale|. Branch-free polynomials replace libm;
 * the results are not bit-identical to it.
 */
using BoxMullerKernel = void (*)(const double *u1, const double *u2,
                                 double scale, double *out,
                                 std::size_t pairs);

/**
 * Bound on |fast - exact| per unit of scale for every BoxMullerKernel
 * and every (u1, u2) Rng::boxMullerUniforms can draw. The kernels stay
 * within about 1e-14 (DESIGN.md, "Jitter in blocks, exact when
 * certain"); the bound keeps a margin of 3 * 10^4 over that.
 */
constexpr double boxMullerErrorBound = 3e-10;

/** One compiled BoxMullerKernel. */
struct BoxMullerVariant
{
    const char *name;
    BoxMullerKernel fn;
};

/**
 * The kernels compiled into this build that this CPU can run:
 * "baseline" first, then "avx2-fma" on x86-64 hosts with AVX2 and FMA.
 * Jitter refills use the last one, chosen once per process.
 */
std::vector<BoxMullerVariant> boxMullerVariants();

/** One independently clocked domain. */
class ClockDomain : public FrequencyActuator
{
  public:
    struct Config
    {
        DomainId id = DomainId::FrontEnd;
        Hertz initialHz = gigaHertz(1.0);
        Volt initialVolt = 1.20;

        /** Enable per-edge Gaussian clock jitter. */
        bool jitterEnabled = true;

        /** Jitter standard deviation in femtoseconds (~10 ps / 3). */
        double jitterSigmaFs = 3333.0;

        /** Hard jitter clamp (Table 1: +-10 ps). */
        Tick jitterClampFs = 10000;

        std::uint64_t jitterSeed = 0xC10Cull;
    };

    /**
     * A domain clocked by its owner, which keeps @p now (the current
     * simulated time) alive and calls start() and then edge().
     */
    ClockDomain(const Tick &now, const Config &config);

    /**
     * A domain whose edges are events on @p queue: start(on_edge)
     * schedules them, and each runs edge(on_edge) and reschedules.
     */
    ClockDomain(EventQueue &queue, const Config &config);

    ~ClockDomain() override;

    /** Compute the first edge from the current time. */
    void start();

    /** Queue-bound domains: start() and schedule the first edge. */
    void start(std::function<void()> on_edge);

    /**
     * One clock edge; the owner has advanced the time base to
     * nextEdgeTime(). Cycle bookkeeping, then @p work, then the next
     * edge's time.
     */
    template <typename Work>
    void
    edge(Work &&work)
    {
        ++cycles;
        lastIdealEdge = nextIdealEdge;
        if (edgeTrace) [[unlikely]]
            traceEdge();
        accrueVoltageTime();
        work();
        placeNextEdge();
    }

    /** @{ Current operating point. */
    Hertz frequency() const { return hz; }
    Volt voltage() const { return volts; }
    Tick period() const { return periodTicks; }
    /** @} */

    DomainId id() const { return cfg.id; }
    const char *name() const { return domainName(cfg.id); }

    /** Edges elapsed since start(). */
    std::uint64_t cycleCount() const { return cycles; }

    /**
     * Edges whose tick the fast jitter value's error bound could not
     * decide, so the exact Box-Muller chain placed them. For tests;
     * not a registered stat.
     */
    std::uint64_t jitterRecomputeCount() const { return jitterRecomputes; }

    /** Scheduled time of the next edge (with jitter applied). */
    Tick nextEdgeTime() const { return nextActualEdge; }

    /**
     * First clock edge at or after time @p t. Exact for the already
     * scheduled edge; later edges are extrapolated on the ideal grid
     * (jitter beyond the next edge is unknowable in advance).
     */
    Tick
    nextEdgeAtOrAfter(Tick t) const
    {
        Tick e = nextActualEdge;
        while (e < t)
            e += periodTicks;
        return e;
    }

    /** FrequencyActuator: change f/V effective from the next edge. */
    void applyOperatingPoint(Hertz f, Volt v) override;

    /** Accumulated V^2-seconds, for frequency-independent leakage. */
    double voltSquaredSeconds() const { return v2Seconds; }

    /** Bring the V^2-seconds integral up to the current time. */
    void
    accrueVoltageTime()
    {
        if (curTick > lastVoltAccrual) {
            v2Seconds +=
                volts * volts * ticksToSeconds(curTick - lastVoltAccrual);
            lastVoltAccrual = curTick;
        }
    }

    /**
     * Register clock stats under @p prefix: "<prefix>.cycles",
     * ".freq_ghz", ".volt", ".op_changes". Dump-time callbacks only.
     */
    void registerStats(obs::StatsRegistry &reg,
                       const std::string &prefix) const;

    /**
     * Attach a trace sink. Operating-point changes are always
     * recorded through the sink's own category gate; per-edge instant
     * events are recorded only when the sink wants them, via a
     * pointer cached here so the edge hot path pays exactly one
     * predictable null test.
     */
    void attachTrace(obs::TraceSink *sink);

  private:
    class EdgeEvent;

    /**
     * Jitter values per refill. The jitter stream is read only here,
     * one gaussian(0, sigma) value per edge, so drawing it in blocks
     * keeps every value. Entry 0 is the sin half carried over from the
     * last block (exact); entries 1..63 are fast values of jitterPairs
     * fresh pairs, cos half first; entry 64 is the carry: the exact sin
     * half of the last fresh pair.
     */
    static constexpr std::size_t jitterBlockSize = 64;
    static constexpr std::size_t jitterPairs = jitterBlockSize / 2;

    /** Set the next edge: the ideal grid plus the next jitter value. */
    void
    placeNextEdge()
    {
        nextIdealEdge = lastIdealEdge + periodTicks;
        nextActualEdge =
            cfg.jitterEnabled ? nextJitteredTick() : nextIdealEdge;
    }

    /**
     * Tick of the next jitter value. The fast value decides it when
     * its error bound allows, else the exact chain does. Never before
     * "now" or before the previous edge: offset from the ideal grid
     * only.
     */
    Tick
    nextJitteredTick()
    {
        if (jitterNext == jitterBlockSize) [[unlikely]]
            refillJitter();
        const std::size_t slot = jitterNext++;
        const auto tick =
            boundedJitteredTick(nextIdealEdge, jitterFloor(), jitterClamp(),
                                jitterBlock[slot], jitterBound);
        if (!tick) [[unlikely]]
            return exactJitteredTick(slot);
#if MCDSIM_DCHECK_IS_ON
        checkDecidedTick(slot, *tick);
#endif
        return *tick;
    }

    Tick jitterFloor() const { return std::max(curTick, lastIdealEdge) + 1; }
    double jitterClamp() const
    {
        return static_cast<double>(cfg.jitterClampFs);
    }

    void refillJitter();

    /** Exact jitter of block entry @p slot, from its stored uniforms. */
    double exactJitter(std::size_t slot) const;

    /** The tick the exact chain gives block entry @p slot. */
    [[gnu::cold, gnu::noinline]] Tick exactJitteredTick(std::size_t slot);

    /**
     * The bound decided @p tick for entry @p slot: DCHECK that the
     * exact chain agrees. Defined in every build; called in DCHECK
     * builds only.
     */
    void checkDecidedTick(std::size_t slot, Tick tick) const;

    void traceEdge();

    const Tick &curTick;
    Config cfg;
    Hertz hz;
    Volt volts;
    Tick periodTicks = 0;
    Rng jitter;
    std::size_t jitterNext = jitterBlockSize;

    /** Half-width of the interval the exact jitter lies in around a
     *  fast block entry: boxMullerErrorBound * |sigma|. */
    double jitterBound = 0.0;
    std::uint64_t jitterRecomputes = 0;

    /** The edge event of a queue-bound domain, else null. */
    std::unique_ptr<EdgeEvent> edgeEvent;

    std::uint64_t cycles = 0;
    Tick lastIdealEdge = 0;
    Tick nextIdealEdge = 0;
    Tick nextActualEdge = 0;
    Tick lastVoltAccrual = 0;
    double v2Seconds = 0.0;
    std::uint64_t opChanges = 0;
    bool started = false;

    /** Attached sink, or nullptr (operating points, transitions). */
    obs::TraceSink *trace = nullptr;

    /** Cached: non-null only when the sink wants per-edge events. */
    obs::TraceSink *edgeTrace = nullptr;

    /** Pre-drawn jitter; entries jitterNext..63 are unread. */
    std::array<double, jitterBlockSize + 1> jitterBlock;

    /** The uniforms of the fresh pairs behind entries 1..64. */
    std::array<double, jitterPairs> jitterU1;
    std::array<double, jitterPairs> jitterU2;
};

} // namespace mcd

#endif // MCDSIM_MCD_CLOCK_DOMAIN_HH
