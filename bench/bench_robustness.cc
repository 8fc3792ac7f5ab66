/**
 * @file
 * Robustness sweep: how do the three DVFS schemes degrade when their
 * inputs misbehave? The fault layer (src/fault/) injects seeded
 * sensor noise onto the queue-occupancy samples and drops controller
 * updates at configurable rates; this harness sweeps both knobs over
 * the adaptive, PID, and attack/decay controllers and reports
 * stability metrics per point:
 *
 *   - queue overshoot: worst per-domain *sustained* excess of mean
 *     occupancy above the q_ref setpoint (instability shows up here
 *     first; the peak is not used because the LS queue fills on
 *     memory stalls under every controller, saturating a max-based
 *     metric at queue capacity);
 *   - freq stddev: mean per-domain frequency standard deviation in
 *     GHz (oscillation / hunting indicator);
 *   - transitions: total V/f transitions across domains (a thrashing
 *     controller burns transition energy);
 *   - P-deg%: slowdown vs the same scheme with no faults injected.
 *
 * The same metrics flow through the src/obs/ stats registry as
 * <dom>.stability.queue_overshoot and .freq_stddev_ghz plus the
 * fault.* injection counters — pass --stats-out to capture them.
 *
 * Not a figure from the paper: this is the reproduction's own
 * fault-tolerance evaluation (see EXPERIMENTS.md, "Fault sweeps").
 */

#include <algorithm>
#include <cmath>

#include "bench_common.hh"

using namespace mcd;

namespace
{

struct SweepPoint
{
    double noiseAmp;  ///< sensor-noise gaussian sigma, queue entries
    double dropRate;  ///< probability a controller update is dropped
};

/** Fault spec string for one sweep point ("" = fault-free). */
std::string
pointSpec(const SweepPoint &p)
{
    std::string spec;
    if (p.noiseAmp > 0.0) {
        spec += "sensor-noise:amp=" + std::to_string(p.noiseAmp);
    }
    if (p.dropRate > 0.0) {
        if (!spec.empty())
            spec += ";";
        spec += "drop-update:rate=" + std::to_string(p.dropRate);
    }
    return spec;
}

struct Stability
{
    double overshoot = 0.0;  ///< worst queue excursion above q_ref
    double freqStddev = 0.0; ///< mean per-domain freq stddev, GHz
    std::uint64_t transitions = 0;
};

Stability
measure(const SimResult &r, const std::array<double, 3> &qref)
{
    Stability s;
    const TimeSeries *queues[3] = {&r.intQueueTrace, &r.fpQueueTrace,
                                   &r.lsQueueTrace};
    const TimeSeries *freqs[3] = {&r.intFreqTrace, &r.fpFreqTrace,
                                  &r.lsFreqTrace};
    for (int d = 0; d < 3; ++d) {
        if (queues[d]->summary().count() > 0) {
            s.overshoot = std::max(
                s.overshoot, queues[d]->summary().mean() - qref[d]);
        }
        if (freqs[d]->summary().count() > 1)
            s.freqStddev += std::sqrt(freqs[d]->summary().variance());
        s.transitions += r.domains[d].transitions;
    }
    s.overshoot = std::max(0.0, s.overshoot);
    s.freqStddev /= 3.0;
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    mcdbench::parseHarnessArgs(argc, argv);
    RunOptions base = mcdbench::runOptions(300000);
    base.recordTraces = true;

    mcdbench::banner("ROBUSTNESS",
                     "Controller stability under injected sensor noise "
                     "and dropped updates");

    std::printf("(instructions per run: %llu; set MCDSIM_INSTS to "
                "change)\n\n",
                static_cast<unsigned long long>(base.instructions));

    const std::vector<ControllerKind> kinds = {
        ControllerKind::Adaptive, ControllerKind::Pid,
        ControllerKind::AttackDecay};
    // First sweep point is the fault-free reference each scheme's
    // P-deg% is measured against.
    const std::vector<SweepPoint> points = {
        {0.0, 0.0}, {1.0, 0.0}, {4.0, 0.0},
        {0.0, 0.5}, {2.0, 0.25}, {4.0, 0.5},
    };
    const auto suiteNames = mcdbench::allBenchmarks();
    const std::vector<std::string> benches(
        suiteNames.begin(),
        suiteNames.begin() +
            std::min<std::size_t>(2, suiteNames.size()));

    // The sweep points differ only in their fault plan. An
    // externally supplied --faults spec composes with (prepends to)
    // each point's own injections.
    std::vector<RunSpec> specs;
    specs.reserve(points.size() * kinds.size() * benches.size());
    for (const auto &p : points) {
        RunOptions opts = base;
        std::string spec = pointSpec(p);
        if (!mcdbench::faultSpec().empty()) {
            spec = spec.empty()
                       ? mcdbench::faultSpec()
                       : mcdbench::faultSpec() + ";" + spec;
        }
        opts.config.faults = FaultPlan::parseShared(spec);
        for (const auto &bench : benches) {
            for (const auto kind : kinds)
                specs.push_back(schemeSpec(bench, kind, opts));
        }
    }
    const CampaignResult campaign = mcdbench::runCampaign(std::move(specs));

    const std::array<double, 3> qref = base.config.qref;
    std::printf("%-5s %-5s | %-12s | %9s %9s %11s %7s\n", "noise",
                "drop", "scheme", "overshoot", "f-sd GHz", "transitions",
                "P-deg%");
    mcdbench::rule(70);

    // Runs are (point major, benchmark middle, kind minor); the
    // fault-free point supplies each scheme's reference wall time.
    const std::size_t perPoint = benches.size() * kinds.size();
    std::vector<double> refTicks(perPoint, 0.0);
    for (std::size_t pi = 0; pi < points.size(); ++pi) {
        const SweepPoint &p = points[pi];
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            // Aggregate each scheme over the benchmarks at this point.
            Stability agg;
            double ticks = 0.0, ref = 0.0;
            bool complete = true;
            for (std::size_t b = 0; b < benches.size(); ++b) {
                const std::size_t slot = b * kinds.size() + k;
                const RunOutcome &o =
                    campaign.runs[pi * perPoint + slot].outcome;
                if (!o.ok()) {
                    complete = false;
                    continue;
                }
                const Stability s = measure(o.result, qref);
                agg.overshoot = std::max(agg.overshoot, s.overshoot);
                agg.freqStddev += s.freqStddev;
                agg.transitions += s.transitions;
                ticks += static_cast<double>(o.result.wallTicks);
                ref += refTicks[slot];
                if (pi == 0)
                    refTicks[slot] =
                        static_cast<double>(o.result.wallTicks);
            }
            agg.freqStddev /= static_cast<double>(benches.size());
            const char *scheme = controllerKindName(kinds[k]);
            if (!complete) {
                std::printf("%5.1f %5.2f | %-12s | %9s\n", p.noiseAmp,
                            p.dropRate, scheme, "(failed)");
                continue;
            }
            const double pdeg =
                (pi == 0 || ref <= 0.0) ? 0.0 : ticks / ref - 1.0;
            std::printf("%5.1f %5.2f | %-12s | %9.2f %9.3f %11llu "
                        "%7.1f\n",
                        p.noiseAmp, p.dropRate, scheme, agg.overshoot,
                        agg.freqStddev,
                        static_cast<unsigned long long>(agg.transitions),
                        mcdbench::pct(pdeg));
        }
        if (pi + 1 < points.size())
            mcdbench::rule(70);
    }

    std::printf("\nReading: a robust controller keeps overshoot and "
                "f-sd flat as noise/drops\ngrow; rising transitions "
                "with flat occupancy means hunting on noise.\n");
    return mcdbench::reportFailures(campaign);
}
