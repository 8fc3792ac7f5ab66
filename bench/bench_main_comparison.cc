/**
 * @file
 * Main evaluation reproduction (the paper's per-benchmark energy /
 * performance comparison; reconstructed from the abstract's headline
 * numbers since the supplied text truncates mid-Section 5):
 *
 *   for every benchmark, energy savings and performance degradation
 *   of the adaptive scheme vs the fixed-interval PID of [23] and the
 *   attack/decay scheme of [9], normalized to the full-speed MCD
 *   baseline. Expected: ~9% average savings at ~3% degradation for
 *   the adaptive scheme, close to the best fixed-interval result.
 *
 * The synchronous-processor overhead (MCD baseline vs single-clock
 * chip) is reported separately at the end, matching how the MCD
 * papers account for it.
 *
 * Runs go through the shared launch path (mcdbench::runCampaign), so
 * a failing run (injected via --faults or real) marks only its own
 * table cells "failed" and the harness exits non-zero after printing
 * the partial table.
 */

#include "bench_common.hh"

using namespace mcd;

int
main(int argc, char **argv)
{
    mcdbench::parseHarnessArgs(argc, argv);
    const RunOptions opts = mcdbench::runOptions();

    mcdbench::banner("MAIN COMPARISON",
                     "Energy savings / performance degradation vs "
                     "MCD full-speed baseline");

    std::printf("(instructions per run: %llu; set MCDSIM_INSTS to "
                "change)\n\n",
                static_cast<unsigned long long>(opts.instructions));

    const std::vector<ControllerKind> kinds = {
        ControllerKind::Adaptive, ControllerKind::Pid,
        ControllerKind::AttackDecay};

    std::printf("%-12s | %21s | %21s | %21s\n", "",
                "adaptive (this paper)", "PID [23]", "attack/decay [9]");
    std::printf("%-12s | %6s %6s %7s | %6s %6s %7s | %6s %6s %7s\n",
                "benchmark", "E-sav%", "P-deg%", "EDP+%", "E-sav%",
                "P-deg%", "EDP+%", "E-sav%", "P-deg%", "EDP+%");
    mcdbench::rule(84);

    // The whole matrix in one campaign: per benchmark an MCD
    // baseline, a synchronous baseline, and one run per scheme. Runs
    // come back in spec order, so the per-benchmark stride below is
    // (2 + kinds.size()).
    std::vector<RunSpec> specs;
    const auto &suite = benchmarkList();
    specs.reserve(suite.size() * (2 + kinds.size()));
    for (const auto &info : suite) {
        specs.push_back(mcdBaselineSpec(info.name, opts));
        specs.push_back(syncBaselineSpec(info.name, opts));
        for (const auto kind : kinds)
            specs.push_back(schemeSpec(info.name, kind, opts));
    }
    const CampaignResult campaign = mcdbench::runCampaign(std::move(specs));
    const auto outcome = [&](std::size_t i) -> const RunOutcome & {
        return campaign.runs[i].outcome;
    };

    struct Avg
    {
        double e = 0, p = 0, edp = 0;
    };
    Avg avgs[3];
    double sync_overhead = 0.0;
    int n = 0;
    int sync_n = 0;

    std::size_t idx = 0;
    for (const auto &info : suite) {
        const RunOutcome &base = outcome(idx++);
        const RunOutcome &sync = outcome(idx++);
        if (base.ok() && sync.ok()) {
            sync_overhead +=
                static_cast<double>(base.result.wallTicks) /
                    static_cast<double>(sync.result.wallTicks) -
                1.0;
            ++sync_n;
        }

        std::printf("%-12s |", info.name.c_str());
        bool row_complete = base.ok();
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            const RunOutcome &r = outcome(idx++);
            if (r.ok() && base.ok()) {
                const Comparison c = compare(r.result, base.result);
                std::printf(" %6.1f %6.1f %7.1f |",
                            mcdbench::pct(c.energySavings),
                            mcdbench::pct(c.perfDegradation),
                            mcdbench::pct(c.edpImprovement));
                avgs[k].e += c.energySavings;
                avgs[k].p += c.perfDegradation;
                avgs[k].edp += c.edpImprovement;
            } else {
                std::printf(" %21s |",
                            runStatusName(r.ok() ? base.status
                                                 : r.status));
                row_complete = false;
            }
        }
        std::printf("\n");
        std::fflush(stdout);
        // Averages stay over fully comparable rows only.
        if (row_complete)
            ++n;
    }

    mcdbench::rule(84);
    if (n > 0) {
        std::printf("%-12s |", "AVERAGE");
        for (auto &a : avgs) {
            std::printf(" %6.1f %6.1f %7.1f |", mcdbench::pct(a.e / n),
                        mcdbench::pct(a.p / n), mcdbench::pct(a.edp / n));
        }
        std::printf("\n\n");
        std::printf("paper headline: adaptive ~9%% energy savings at "
                    "~3%% degradation,\n  close to the best "
                    "fixed-interval scheme -> measured %.1f%% / %.1f%%\n",
                    mcdbench::pct(avgs[0].e / n),
                    mcdbench::pct(avgs[0].p / n));
    } else {
        std::printf("(no benchmark completed all schemes; see failure "
                    "summary)\n");
    }
    if (sync_n > 0) {
        std::printf("MCD substrate overhead vs synchronous chip (no "
                    "DVFS): %.1f%% average slowdown\n",
                    mcdbench::pct(sync_overhead / sync_n));
    }
    return mcdbench::reportFailures(campaign);
}
