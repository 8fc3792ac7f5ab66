#include "mcd/clock_domain.hh"

#include <algorithm>
#include <cmath>

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
    // One draw straight from the stream: the first block refill
    // happens on the first edge, inside the run.
    placeNextEdge(cfg.jitterEnabled ? jitter.gaussian(0.0, cfg.jitterSigmaFs)
                                    : 0.0);
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
    for (double &j : jitterBlock)
        j = jitter.gaussian(0.0, cfg.jitterSigmaFs);
    jitterNext = 0;
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
