#include "mcd/clock_domain.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"
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

ClockDomain::ClockDomain(EventQueue &queue, const Config &config)
    : eq(queue), cfg(config), hz(config.initialHz),
      volts(config.initialVolt),
      periodTicks(periodFromFrequency(config.initialHz)),
      jitter(config.jitterSeed ^
             (static_cast<std::uint64_t>(config.id) << 32)),
      edgeEvent(*this)
{
    if (hz <= 0.0)
        fatal("domain %s: non-positive initial frequency", name());
    MCDSIM_INVARIANT(periodTicks > 0,
                     "domain %s: initial frequency %g Hz yields a zero-tick "
                     "period", name(), hz);
}

void
ClockDomain::start(EdgeFn fn, void *ctx)
{
    MCDSIM_CHECK(!started, "domain %s started twice", name());
    started = true;
    onEdge = fn;
    onEdgeCtx = ctx;
    lastIdealEdge = eq.now();
    lastVoltAccrual = eq.now();
    scheduleNextEdge();
}

void
ClockDomain::start(std::function<void()> on_edge)
{
    MCDSIM_CHECK(!started, "domain %s started twice", name());
    onEdgeCallable = std::move(on_edge);
    if (!onEdgeCallable) {
        start(nullptr, nullptr);
        return;
    }
    start([](void *self) {
        static_cast<ClockDomain *>(self)->onEdgeCallable();
    }, this);
}

void
ClockDomain::scheduleNextEdge()
{
    nextIdealEdge = lastIdealEdge + periodTicks;

    Tick actual = nextIdealEdge;
    if (cfg.jitterEnabled) {
        double j = jitter.gaussian(0.0, cfg.jitterSigmaFs);
        const double clamp = static_cast<double>(cfg.jitterClampFs);
        j = std::clamp(j, -clamp, clamp);
        // Never jitter an edge before "now" or before the previous
        // edge: offset from the ideal grid only.
        const auto floor_t = std::max(eq.now(), lastIdealEdge) + 1;
        const double shifted = static_cast<double>(nextIdealEdge) + j;
        actual = shifted < static_cast<double>(floor_t)
                     ? floor_t
                     : static_cast<Tick>(shifted);
    }
    nextActualEdge = actual;
    // From edge() this is a self-reschedule of the event currently
    // being dispatched, so EventQueue::schedule() takes its fused
    // pop+insert path: the edge entry is overwritten at the heap root
    // and settles with a single sift-down.
    eq.schedule(&edgeEvent, actual);
}

void
ClockDomain::edge()
{
    ++cycles;
    lastIdealEdge = nextIdealEdge;
    if (edgeTrace) [[unlikely]]
        edgeTrace->clockEdge(eq.now(), cfg.id, cycles);
    accrueVoltageTime();
    if (onEdge)
        onEdge(onEdgeCtx);
    scheduleNextEdge();
}

void
ClockDomain::applyOperatingPoint(Hertz f, Volt v)
{
    MCDSIM_CHECK(f > 0.0, "domain %s: non-positive frequency", name());
    MCDSIM_TRACE(obs::DebugFlag::ClockDomain,
                 "t=%llu %s operating point %.4f GHz %.3f V",
                 static_cast<unsigned long long>(eq.now()), name(), f / 1e9,
                 v);
    accrueVoltageTime();
    hz = f;
    volts = v;
    ++opChanges;
    if (trace) [[unlikely]]
        trace->operatingPoint(eq.now(), cfg.id, hz, volts);
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

void
ClockDomain::accrueVoltageTime()
{
    const Tick now = eq.now();
    if (now > lastVoltAccrual) {
        v2Seconds += volts * volts * ticksToSeconds(now - lastVoltAccrual);
        lastVoltAccrual = now;
    }
}

} // namespace mcd
