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
 * A domain schedules its own clock edges on the global event queue;
 * the next edge is always computed from the *current* period, so an
 * operating-point change simply stretches or shrinks subsequent
 * cycles. Optional per-edge clock jitter (Table 1: +-10 ps, normally
 * distributed) perturbs edge times without accumulating drift.
 */

#ifndef MCDSIM_MCD_CLOCK_DOMAIN_HH
#define MCDSIM_MCD_CLOCK_DOMAIN_HH

#include <cstdint>
#include <functional>
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

    ClockDomain(EventQueue &queue, const Config &config);

    /** Per-edge work as a plain function of an opaque context. */
    using EdgeFn = void (*)(void *);

    /**
     * Register the per-edge work, fn(ctx) (fn may be null), and
     * schedule the first edge. This is the edge hot path: one
     * indirect call per edge.
     */
    void start(EdgeFn fn, void *ctx);

    /** As above, for any callable (held here, called through a thunk). */
    void start(std::function<void()> on_edge);

    /** @{ Current operating point. */
    Hertz frequency() const { return hz; }
    Volt voltage() const { return volts; }
    Tick period() const { return periodTicks; }
    /** @} */

    DomainId id() const { return cfg.id; }
    const char *name() const { return domainName(cfg.id); }

    /** Edges elapsed since start(). */
    std::uint64_t cycleCount() const { return cycles; }

    /** Time of the most recent edge (ideal grid, jitter excluded). */
    Tick lastEdgeTime() const { return lastIdealEdge; }

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
    void accrueVoltageTime();

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
    class EdgeEvent : public Event
    {
      public:
        explicit EdgeEvent(ClockDomain &domain)
            : Event(static_cast<int>(domain.cfg.id)), dom(domain)
        {}

        void process() override { dom.edge(); }
        const char *name() const override { return "clock-edge"; }

      private:
        ClockDomain &dom;
    };

    void edge();
    void scheduleNextEdge();

    EventQueue &eq;
    Config cfg;
    Hertz hz;
    Volt volts;
    Tick periodTicks;
    Rng jitter;

    EdgeEvent edgeEvent;
    EdgeFn onEdge = nullptr;
    void *onEdgeCtx = nullptr;
    std::function<void()> onEdgeCallable; ///< for start(std::function)
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
};

} // namespace mcd

#endif // MCDSIM_MCD_CLOCK_DOMAIN_HH
