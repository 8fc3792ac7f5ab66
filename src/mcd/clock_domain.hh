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
#include <string>

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
        placeNextEdge(cfg.jitterEnabled ? nextJitter() : 0.0);
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
     * Jitter draws per refill. The jitter stream is read only here,
     * one gaussian(0, sigma) per edge, so drawing it in blocks keeps
     * every value and takes the log/sqrt/sincos chain off the
     * per-edge path.
     */
    static constexpr std::size_t jitterBlockSize = 64;

    double
    nextJitter()
    {
        if (jitterNext == jitterBlockSize) [[unlikely]]
            refillJitter();
        return jitterBlock[jitterNext++];
    }

    void refillJitter();

    /** Set the next edge: the ideal grid plus clamped jitter @p j. */
    void
    placeNextEdge(double j)
    {
        nextIdealEdge = lastIdealEdge + periodTicks;
        Tick actual = nextIdealEdge;
        if (cfg.jitterEnabled) {
            const double clamp = static_cast<double>(cfg.jitterClampFs);
            j = std::clamp(j, -clamp, clamp);
            // Never jitter an edge before "now" or before the previous
            // edge: offset from the ideal grid only.
            const Tick floor_t = std::max(curTick, lastIdealEdge) + 1;
            const double shifted = static_cast<double>(nextIdealEdge) + j;
            actual = shifted < static_cast<double>(floor_t)
                         ? floor_t
                         : static_cast<Tick>(shifted);
        }
        nextActualEdge = actual;
    }

    void traceEdge();

    const Tick &curTick;
    Config cfg;
    Hertz hz;
    Volt volts;
    Tick periodTicks = 0;
    Rng jitter;
    std::size_t jitterNext = jitterBlockSize;

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

    /** Pre-drawn jitter; entries from jitterNext on are unread. */
    std::array<double, jitterBlockSize> jitterBlock;
};

} // namespace mcd

#endif // MCDSIM_MCD_CLOCK_DOMAIN_HH
