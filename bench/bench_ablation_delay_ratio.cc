/**
 * @file
 * Ablation A2: the Remark-3 delay ratio T_m0/T_l0 on the full
 * processor. The analysis says a ratio of 2-8 (level delay slower
 * than delta delay) gives small overshoot with good rise time; this
 * sweep checks the end-to-end consequence with T_l0 fixed at 8
 * sampling periods.
 */

#include "bench_common.hh"

using namespace mcd;

int
main(int argc, char **argv)
{
    mcdbench::parseHarnessArgs(argc, argv);
    const RunOptions opts = mcdbench::runOptions(400000);

    mcdbench::banner("ABLATION A2", "Delay ratio T_m0 / T_l0");

    const std::vector<std::string> names = {"mpeg2_dec", "epic_decode",
                                            "gzip"};
    const std::vector<double> ratios = {0.5, 2.0, 6.25, 8.0, 32.0};
    std::printf("%-12s %8s | %8s %8s %8s %12s\n", "benchmark", "ratio",
                "E-sav%", "P-deg%", "EDP+%", "actions");
    mcdbench::rule(66);

    std::vector<RunSpec> specs;
    for (const auto &name : names) {
        specs.push_back(mcdBaselineSpec(name, opts));
        for (double ratio : ratios) {
            RunSpec s = schemeSpec(name, ControllerKind::Adaptive, opts);
            s.options.config.adaptive.deltaDelay = 8.0;
            s.options.config.adaptive.levelDelay = 8.0 * ratio;
            specs.push_back(std::move(s));
        }
    }
    const std::vector<SimResult> results = mcdbench::runAll(std::move(specs));

    std::size_t idx = 0;
    for (const auto &name : names) {
        const SimResult &base = results[idx++];
        for (double ratio : ratios) {
            const SimResult &r = results[idx++];
            const Comparison c = compare(r, base);
            std::uint64_t actions = 0;
            for (const auto &d : r.domains)
                actions += d.controllerStats.totalActions();
            std::printf("%-12s %8.2f | %8.1f %8.1f %8.1f %12llu\n",
                        name.c_str(), ratio,
                        mcdbench::pct(c.energySavings),
                        mcdbench::pct(c.perfDegradation),
                        mcdbench::pct(c.edpImprovement),
                        static_cast<unsigned long long>(actions));
            std::fflush(stdout);
        }
        mcdbench::rule(66);
    }
    std::printf("(default ratio 50/8 = 6.25 sits inside the paper's "
                "[2, 8] design band)\n");
    return 0;
}
