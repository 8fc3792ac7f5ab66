/**
 * @file
 * q_ref trade-off sweep (paper Section 3): "the position of q_ref
 * specifies the actual tradeoff between performance degradation and
 * energy saving... increase q_ref to make the DVFS controller more
 * aggressive in saving energy, or decrease q_ref to preserve
 * performance". This harness sweeps the reference point from very
 * conservative to very aggressive and prints the resulting
 * energy/performance frontier, including the calibrated default and
 * the paper's literal 6/4/4 setting.
 */

#include <iterator>

#include "bench_common.hh"

using namespace mcd;

int
main(int argc, char **argv)
{
    mcdbench::parseHarnessArgs(argc, argv);
    const RunOptions opts = mcdbench::runOptions(400000);

    mcdbench::banner("QREF TRADEOFF",
                     "Reference queue point vs energy/performance "
                     "(Section 3)");

    struct Setting
    {
        const char *label;
        double qint, qfp, qls;
    };
    const Setting settings[] = {
        {"very conservative (3/2/2)", 3, 2, 2},
        {"paper literal (6/4/4)", 6, 4, 4},
        {"calibrated default (9/6/4)", 9, 6, 4},
        {"aggressive (12/8/6)", 12, 8, 6},
        {"very aggressive (16/12/10)", 16, 12, 10},
    };

    const std::vector<std::string> names = {"epic_decode", "gzip",
                                            "mpeg2_dec", "swim"};

    std::printf("averages over:");
    for (const auto &n : names)
        std::printf(" %s", n.c_str());
    std::printf("\n\n%-28s %8s %8s %8s\n", "q_ref setting", "E-sav%",
                "P-deg%", "EDP+%");
    mcdbench::rule(58);

    // Baselines first, then per setting one adaptive run per
    // benchmark.
    std::vector<RunSpec> specs;
    specs.reserve(names.size() * (1 + std::size(settings)));
    for (const auto &n : names)
        specs.push_back(mcdBaselineSpec(n, opts));
    for (const auto &s : settings) {
        for (const auto &n : names) {
            RunSpec spec = schemeSpec(n, ControllerKind::Adaptive, opts);
            spec.options.config.qref = {s.qint, s.qfp, s.qls};
            specs.push_back(std::move(spec));
        }
    }
    const std::vector<SimResult> results = mcdbench::runAll(std::move(specs));

    double prev_e = -1.0;
    bool monotone_energy = true;
    std::size_t idx = names.size();
    for (const auto &s : settings) {
        double e = 0, p = 0, edp = 0;
        for (std::size_t i = 0; i < names.size(); ++i) {
            const Comparison c = compare(results[idx++], results[i]);
            e += c.energySavings;
            p += c.perfDegradation;
            edp += c.edpImprovement;
        }
        const double n = static_cast<double>(names.size());
        std::printf("%-28s %8.2f %8.2f %8.2f\n", s.label,
                    mcdbench::pct(e / n), mcdbench::pct(p / n),
                    mcdbench::pct(edp / n));
        std::fflush(stdout);
        if (e / n < prev_e)
            monotone_energy = false;
        prev_e = e / n;
    }

    mcdbench::rule(58);
    std::printf("paper claim: raising q_ref trades performance for "
                "energy monotonically -> %s\n",
                monotone_energy ? "REPRODUCED" : "CHECK");
    return 0;
}
