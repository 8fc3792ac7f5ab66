/**
 * @file
 * Ablation A5: domain partitioning (paper Section 2's open design
 * question — "where to partition"). Compares the 4-domain Semeraro
 * partition (Figure 1) against the 5-domain Iyer & Marculescu variant
 * with a separate fetch domain: the extra fetch->dispatch crossing
 * costs a little performance at full speed, and the DVFS results on
 * top of each substrate should be nearly unchanged (both papers
 * control only the back-end domains).
 */

#include "bench_common.hh"

using namespace mcd;

int
main(int argc, char **argv)
{
    mcdbench::parseHarnessArgs(argc, argv);
    const RunOptions opts = mcdbench::runOptions(400000);

    mcdbench::banner("ABLATION A5",
                     "4-domain (Semeraro) vs 5-domain "
                     "(Iyer-Marculescu) partition");

    std::printf("%-12s %-8s | %12s | %8s %8s %8s\n", "benchmark",
                "partition", "baseline-ms", "E-sav%", "P-deg%",
                "EDP+%");
    mcdbench::rule(72);

    const std::vector<const char *> names = {"epic_decode", "mpeg2_dec",
                                             "gzip", "swim"};

    // Per benchmark and partition (4- and 5-domain substrate): an
    // MCD baseline and an adaptive run.
    std::vector<RunSpec> specs;
    for (const char *name : names) {
        for (int five = 0; five <= 1; ++five) {
            RunOptions o = opts;
            o.config.fiveDomainPartition = five != 0;
            specs.push_back(mcdBaselineSpec(name, o));
            specs.push_back(schemeSpec(name, ControllerKind::Adaptive, o));
        }
    }
    const std::vector<SimResult> results = mcdbench::runAll(std::move(specs));

    double overhead_sum = 0.0;
    int n = 0;
    std::size_t idx = 0;
    for (const char *name : names) {
        const SimResult *bases[2] = {nullptr, nullptr};
        for (int five = 0; five <= 1; ++five) {
            bases[five] = &results[idx++];
            const SimResult &r = results[idx++];
            const Comparison c = compare(r, *bases[five]);
            std::printf("%-12s %-8s | %12.3f | %8.1f %8.1f %8.1f\n",
                        name, five ? "5-domain" : "4-domain",
                        bases[five]->seconds() * 1e3,
                        mcdbench::pct(c.energySavings),
                        mcdbench::pct(c.perfDegradation),
                        mcdbench::pct(c.edpImprovement));
            std::fflush(stdout);
        }
        overhead_sum += static_cast<double>(bases[1]->wallTicks) /
                            static_cast<double>(bases[0]->wallTicks) -
                        1.0;
        ++n;
        mcdbench::rule(72);
    }
    std::printf("average 5-domain partition overhead at full speed: "
                "%.2f%%\n",
                mcdbench::pct(overhead_sum / n));
    std::printf("=> the finer partition costs one extra synchronizing "
                "crossing but leaves the\n   DVFS scheme comparison "
                "essentially unchanged (Section 2's expectation).\n");
    return 0;
}
