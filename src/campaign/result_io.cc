#include "campaign/result_io.hh"

#include <string>
#include <vector>

#include "common/record.hh"

namespace mcd
{

namespace
{

void
writeSummary(RecordWriter &w, const std::string &key,
             const SummaryStats &s)
{
    w.begin(key);
    w.fieldU64(s.count());
    w.fieldF64(s.mean());
    w.fieldF64(s.m2State());
    w.fieldF64(s.sum());
    w.fieldF64(s.rawMin());
    w.fieldF64(s.rawMax());
    w.end();
}

void
writeSeries(RecordWriter &w, const std::string &key, const TimeSeries &t)
{
    w.blob(key + ".name", t.name());
    w.u64(key + ".stride", t.strideState());
    w.u64(key + ".counter", t.counterState());
    w.u64(key + ".points", t.size());

    w.begin(key + ".ticks");
    for (std::size_t i = 0; i < t.size(); ++i)
        w.fieldU64(t.tickAt(i));
    w.end();
    w.begin(key + ".values");
    for (std::size_t i = 0; i < t.size(); ++i)
        w.fieldF64(t.valueAt(i));
    w.end();
    writeSummary(w, key + ".summary", t.summary());
}

SummaryStats
readSummary(RecordReader &r, const std::string &key)
{
    const auto tok = r.fields(r.value(key));
    if (tok.size() != 6)
        r.fail("summary '" + key + "' needs 6 fields");
    return SummaryStats::restore(
        r.parseU64(tok[0], key), r.parseF64(tok[1], key),
        r.parseF64(tok[2], key), r.parseF64(tok[3], key),
        r.parseF64(tok[4], key), r.parseF64(tok[5], key));
}

TimeSeries
readSeries(RecordReader &r, const std::string &key)
{
    std::string name(r.blob(key + ".name"));
    const auto stride =
        static_cast<std::size_t>(r.u64(key + ".stride"));
    const auto counter =
        static_cast<std::size_t>(r.u64(key + ".counter"));
    const auto points = r.u64(key + ".points");

    const auto tickTok = r.fields(r.value(key + ".ticks"));
    const auto valueTok = r.fields(r.value(key + ".values"));
    if (tickTok.size() != points || valueTok.size() != points)
        r.fail("series '" + key + "' point count mismatch");

    std::vector<Tick> ticks;
    std::vector<double> values;
    ticks.reserve(points);
    values.reserve(points);
    for (std::uint64_t i = 0; i < points; ++i) {
        ticks.push_back(r.parseU64(tickTok[i], key));
        values.push_back(r.parseF64(valueTok[i], key));
    }
    const SummaryStats summary = readSummary(r, key + ".summary");
    return TimeSeries::restore(std::move(name), stride, counter,
                               std::move(ticks), std::move(values),
                               summary);
}

const char *
seriesKey(std::size_t i)
{
    static const char *keys[] = {"trace.int_freq", "trace.fp_freq",
                                 "trace.ls_freq",  "trace.int_queue",
                                 "trace.fp_queue", "trace.ls_queue"};
    return keys[i];
}

TimeSeries &
seriesField(SimResult &r, std::size_t i)
{
    TimeSeries *fields[] = {&r.intFreqTrace,  &r.fpFreqTrace,
                            &r.lsFreqTrace,   &r.intQueueTrace,
                            &r.fpQueueTrace,  &r.lsQueueTrace};
    return *fields[i];
}

} // namespace

std::string
serializeResult(const SimResult &r)
{
    RecordWriter w;
    w.line(kResultFormatTag);
    w.blob("benchmark", r.benchmark);
    w.blob("controller", r.controller);
    w.u64("instructions", r.instructions);
    w.u64("wall_ticks", r.wallTicks);
    w.u64("events_processed", r.eventsProcessed);
    w.f64("energy", r.energy);

    for (std::size_t i = 0; i < r.domains.size(); ++i) {
        const DomainResult &d = r.domains[i];
        const std::string k = "domain." + std::to_string(i);
        w.f64(k + ".avg_frequency", d.avgFrequency);
        w.f64(k + ".avg_queue_occupancy", d.avgQueueOccupancy);
        w.u64(k + ".transitions", d.transitions);
        w.u64(k + ".actions_up", d.controllerStats.actionsUp);
        w.u64(k + ".actions_down", d.controllerStats.actionsDown);
        w.u64(k + ".cancellations", d.controllerStats.cancellations);
        w.u64(k + ".samples", d.controllerStats.samples);
        w.f64(k + ".energy", d.energy);
    }

    for (std::size_t d = 0; d < numDomains; ++d)
        for (std::size_t c = 0; c < numEnergyCategories; ++c)
            w.f64("energy_breakdown." + std::to_string(d) + "." +
                      std::to_string(c),
                  r.energyBreakdown[d][c]);

    w.f64("branch_direction_accuracy", r.branchDirectionAccuracy);
    w.f64("l1d_miss_rate", r.l1dMissRate);
    w.f64("l2_miss_rate", r.l2MissRate);
    w.u64("sync_crossings", r.syncCrossings);
    w.u64("sync_penalties", r.syncPenalties);
    w.u64("fe_cycles", r.feCycles);
    w.u64("fe_cycles_fetch_stalled", r.feCyclesFetchStalled);
    w.u64("fe_cycles_branch_blocked", r.feCyclesBranchBlocked);
    w.u64("fe_cycles_rob_full", r.feCyclesRobFull);
    w.u64("fe_cycles_queue_full", r.feCyclesQueueFull);
    w.f64("avg_rob_occupancy", r.avgRobOccupancy);

    w.blob("stats_text", r.statsText);
    w.blob("stats_json", r.statsJson);
    w.blob("trace_json", r.traceJson);

    const TimeSeries *series[] = {&r.intFreqTrace,  &r.fpFreqTrace,
                                  &r.lsFreqTrace,   &r.intQueueTrace,
                                  &r.fpQueueTrace,  &r.lsQueueTrace};
    for (std::size_t i = 0; i < 6; ++i)
        writeSeries(w, seriesKey(i), *series[i]);

    w.line("end");
    return w.take();
}

SimResult
deserializeResult(std::string_view text)
{
    RecordReader r(text, "result-io", "malformed result entry");
    r.expectLine(kResultFormatTag);

    SimResult out;
    out.benchmark = r.blob("benchmark");
    out.controller = r.blob("controller");
    out.instructions = r.u64("instructions");
    out.wallTicks = r.u64("wall_ticks");
    out.eventsProcessed = r.u64("events_processed");
    out.energy = r.f64("energy");

    for (std::size_t i = 0; i < out.domains.size(); ++i) {
        DomainResult &d = out.domains[i];
        const std::string k = "domain." + std::to_string(i);
        d.avgFrequency = r.f64(k + ".avg_frequency");
        d.avgQueueOccupancy = r.f64(k + ".avg_queue_occupancy");
        d.transitions = r.u64(k + ".transitions");
        d.controllerStats.actionsUp = r.u64(k + ".actions_up");
        d.controllerStats.actionsDown = r.u64(k + ".actions_down");
        d.controllerStats.cancellations = r.u64(k + ".cancellations");
        d.controllerStats.samples = r.u64(k + ".samples");
        d.energy = r.f64(k + ".energy");
    }

    for (std::size_t d = 0; d < numDomains; ++d)
        for (std::size_t c = 0; c < numEnergyCategories; ++c)
            out.energyBreakdown[d][c] =
                r.f64("energy_breakdown." + std::to_string(d) + "." +
                      std::to_string(c));

    out.branchDirectionAccuracy = r.f64("branch_direction_accuracy");
    out.l1dMissRate = r.f64("l1d_miss_rate");
    out.l2MissRate = r.f64("l2_miss_rate");
    out.syncCrossings = r.u64("sync_crossings");
    out.syncPenalties = r.u64("sync_penalties");
    out.feCycles = r.u64("fe_cycles");
    out.feCyclesFetchStalled = r.u64("fe_cycles_fetch_stalled");
    out.feCyclesBranchBlocked = r.u64("fe_cycles_branch_blocked");
    out.feCyclesRobFull = r.u64("fe_cycles_rob_full");
    out.feCyclesQueueFull = r.u64("fe_cycles_queue_full");
    out.avgRobOccupancy = r.f64("avg_rob_occupancy");

    out.statsText = r.blob("stats_text");
    out.statsJson = r.blob("stats_json");
    out.traceJson = r.blob("trace_json");

    for (std::size_t i = 0; i < 6; ++i)
        seriesField(out, i) = readSeries(r, seriesKey(i));

    r.expectLine("end");
    r.expectEnd();
    return out;
}

} // namespace mcd
