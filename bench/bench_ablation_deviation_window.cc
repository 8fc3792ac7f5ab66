/**
 * @file
 * Ablation A1: deviation-window size. The DW is the adaptive scheme's
 * first line of noise rejection (Section 3); removing it should cause
 * spurious actions on noisy queues, while an over-wide window blinds
 * the controller to genuine level errors. Swept on a noisy abstract
 * plant and on two full-processor workloads.
 */

#include "bench_common.hh"

using namespace mcd;

int
main(int argc, char **argv)
{
    mcdbench::parseHarnessArgs(argc, argv);
    const RunOptions opts = mcdbench::runOptions(400000);

    mcdbench::banner("ABLATION A1", "Deviation-window size");

    // Part 1: spurious-action rate on a noisy queue at reference.
    std::printf("noisy queue at reference (sigma = 1.5 entries), "
                "100k samples:\n");
    std::printf("%10s  %14s %14s\n", "DW", "actions", "cancellations");
    VfCurve vf;
    for (double dw : {0.0, 0.5, 1.0, 2.0, 4.0}) {
        AdaptiveController::Config cfg;
        cfg.qref = 6.0;
        cfg.levelDeviationWindow = dw;
        AdaptiveController ctrl(vf, cfg);
        Rng rng(23);
        Hertz f = 600e6;
        for (int i = 0; i < 100000; ++i) {
            const auto d =
                ctrl.sample(6.0 + rng.gaussian(0.0, 1.5), f, false);
            if (d.change)
                f = d.targetHz;
        }
        std::printf("%10.1f  %14llu %14llu\n", dw,
                    static_cast<unsigned long long>(
                        ctrl.stats().totalActions()),
                    static_cast<unsigned long long>(
                        ctrl.stats().cancellations));
    }

    // Part 2: end-to-end effect on one fast and one slow benchmark.
    std::printf("\nfull-processor sweep (level DW):\n");
    std::printf("%-12s %6s | %8s %8s %8s\n", "benchmark", "DW",
                "E-sav%", "P-deg%", "EDP+%");
    mcdbench::rule(52);

    const std::vector<const char *> names = {"mpeg2_dec", "adpcm_enc"};
    const std::vector<double> windows = {0.0, 1.0, 3.0};

    // Per benchmark: the MCD baseline, then one adaptive run per
    // window width.
    std::vector<RunSpec> specs;
    for (const char *name : names) {
        specs.push_back(mcdBaselineSpec(name, opts));
        for (double dw : windows) {
            RunSpec s = schemeSpec(name, ControllerKind::Adaptive, opts);
            s.options.config.adaptive.levelDeviationWindow = dw;
            specs.push_back(std::move(s));
        }
    }
    const std::vector<SimResult> results = mcdbench::runAll(std::move(specs));

    std::size_t idx = 0;
    for (const char *name : names) {
        const SimResult &base = results[idx++];
        for (double dw : windows) {
            const Comparison c = compare(results[idx++], base);
            std::printf("%-12s %6.1f | %8.1f %8.1f %8.1f\n", name, dw,
                        mcdbench::pct(c.energySavings),
                        mcdbench::pct(c.perfDegradation),
                        mcdbench::pct(c.edpImprovement));
        }
    }
    std::printf("\n=> Table 1's DW = +-1 balances noise rejection "
                "against responsiveness.\n");
    return 0;
}
