/**
 * @file
 * Shorter-interval comparison reproduction (the paper's closing
 * experiment, reconstructed): rerun the fixed-interval PID scheme of
 * [23] with progressively shorter control intervals on the
 * fast-varying group. Shorter intervals help it react sooner, but the
 * decision still waits for the boundary and averages away
 * intra-interval swings, so it should approach — yet not beat — the
 * adaptive scheme, while ever-shorter intervals eventually hurt
 * (noisy averages, more wrong moves).
 */

#include <iterator>

#include "bench_common.hh"

using namespace mcd;

int
main(int argc, char **argv)
{
    mcdbench::parseHarnessArgs(argc, argv);
    const RunOptions opts = mcdbench::runOptions();

    mcdbench::banner("INTERVAL SENSITIVITY",
                     "PID [23] with shorter intervals vs adaptive");

    const auto group = mcdbench::fastVaryingBenchmarks();
    // Intervals in sampling periods: 10 us down to 0.625 us.
    const std::uint32_t intervals[] = {2500, 1250, 625, 312, 156};
    const std::size_t n_intervals = std::size(intervals);

    std::printf("fast-varying group: ");
    for (const auto &n : group)
        std::printf("%s ", n.c_str());
    std::printf("\n\n%-22s %8s %8s %8s\n", "scheme", "E-sav%", "P-deg%",
                "EDP+%");
    mcdbench::rule(52);

    // One spec list for the whole sweep: per benchmark an MCD
    // baseline and the adaptive reference, then per interval one PID
    // run per benchmark with the overridden interval length.
    std::vector<RunSpec> specs;
    specs.reserve(group.size() * (2 + n_intervals));
    for (const auto &name : group) {
        specs.push_back(mcdBaselineSpec(name, opts));
        specs.push_back(schemeSpec(name, ControllerKind::Adaptive, opts));
    }
    for (std::uint32_t interval : intervals) {
        for (const auto &name : group) {
            RunSpec s = schemeSpec(name, ControllerKind::Pid, opts);
            s.options.config.pid.intervalSamples = interval;
            specs.push_back(std::move(s));
        }
    }
    const std::vector<SimResult> results = mcdbench::runAll(std::move(specs));

    // Adaptive reference.
    double ae = 0, ap = 0, aedp = 0;
    std::vector<const SimResult *> bases;
    std::size_t idx = 0;
    for (std::size_t i = 0; i < group.size(); ++i) {
        bases.push_back(&results[idx++]);
        const Comparison c = compare(results[idx++], *bases.back());
        ae += c.energySavings;
        ap += c.perfDegradation;
        aedp += c.edpImprovement;
    }
    const double n = static_cast<double>(group.size());
    std::printf("%-22s %8.1f %8.1f %8.1f\n", "adaptive",
                mcdbench::pct(ae / n), mcdbench::pct(ap / n),
                mcdbench::pct(aedp / n));

    double best_pid_edp = -1e9;
    for (std::uint32_t interval : intervals) {
        double e = 0, p = 0, edp = 0;
        for (std::size_t i = 0; i < group.size(); ++i) {
            const Comparison c = compare(results[idx++], *bases[i]);
            e += c.energySavings;
            p += c.perfDegradation;
            edp += c.edpImprovement;
        }
        char label[64];
        std::snprintf(label, sizeof(label), "pid @ %u sp (%.2f us)",
                      interval, interval * 4e-3);
        std::printf("%-22s %8.1f %8.1f %8.1f\n", label,
                    mcdbench::pct(e / n), mcdbench::pct(p / n),
                    mcdbench::pct(edp / n));
        best_pid_edp = std::max(best_pid_edp, edp / n);
        std::fflush(stdout);
    }

    mcdbench::rule(52);
    std::printf("adaptive EDP %.1f%% vs best fixed-interval %.1f%% -> "
                "%s\n",
                mcdbench::pct(aedp / n), mcdbench::pct(best_pid_edp),
                aedp / n >= best_pid_edp
                    ? "adaptive holds its lead (paper conclusion)"
                    : "CHECK");
    return 0;
}
