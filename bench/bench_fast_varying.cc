/**
 * @file
 * Fast-varying application group reproduction (reconstructed): for
 * the benchmarks whose queue variance concentrates at short
 * wavelengths, the adaptive scheme's self-tuned reaction time should
 * clearly beat both fixed-interval baselines — the paper reports it
 * ahead of the PID scheme [23] and roughly 3x ahead of attack/decay
 * [9] on this group, while all three are comparable on the slow
 * group.
 */

#include "bench_common.hh"

using namespace mcd;

namespace
{

struct GroupAvg
{
    double e = 0, p = 0, edp = 0;
    int n = 0;

    void
    add(const mcd::Comparison &c)
    {
        e += c.energySavings;
        p += c.perfDegradation;
        edp += c.edpImprovement;
        ++n;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    mcdbench::parseHarnessArgs(argc, argv);
    const RunOptions opts = mcdbench::runOptions();

    mcdbench::banner("FAST-VARYING GROUP",
                     "Adaptive vs fixed-interval schemes by "
                     "workload-variability class");

    const std::vector<ControllerKind> kinds = {
        ControllerKind::Adaptive, ControllerKind::Pid,
        ControllerKind::AttackDecay};
    const char *scheme_names[3] = {"adaptive", "pid", "attack/decay"};

    GroupAvg fast[3], slow[3];

    // Per benchmark: one MCD baseline followed by one run per scheme.
    std::vector<RunSpec> specs;
    const auto &suite = benchmarkList();
    for (const auto &info : suite) {
        specs.push_back(mcdBaselineSpec(info.name, opts));
        for (const auto kind : kinds)
            specs.push_back(schemeSpec(info.name, kind, opts));
    }
    const std::vector<SimResult> results = mcdbench::runAll(std::move(specs));

    std::printf("%-12s %-6s | %-14s %8s %8s %8s\n", "benchmark",
                "class", "scheme", "E-sav%", "P-deg%", "EDP+%");
    mcdbench::rule(66);
    std::size_t idx = 0;
    for (const auto &info : suite) {
        const SimResult &base = results[idx++];
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            const SimResult &r = results[idx++];
            const Comparison c = compare(r, base);
            (info.expectedFastVarying ? fast[k] : slow[k]).add(c);
            std::printf("%-12s %-6s | %-14s %8.1f %8.1f %8.1f\n",
                        info.name.c_str(),
                        info.expectedFastVarying ? "FAST" : "slow",
                        scheme_names[k], mcdbench::pct(c.energySavings),
                        mcdbench::pct(c.perfDegradation),
                        mcdbench::pct(c.edpImprovement));
        }
        std::fflush(stdout);
    }

    mcdbench::rule(66);
    for (int group = 0; group < 2; ++group) {
        const GroupAvg *g = group == 0 ? fast : slow;
        std::printf("\n%s group averages:\n",
                    group == 0 ? "FAST-varying" : "slow-varying");
        for (int k = 0; k < 3; ++k) {
            std::printf("  %-14s E %6.2f%%  P %6.2f%%  EDP %6.2f%%\n",
                        scheme_names[k], mcdbench::pct(g[k].e / g[k].n),
                        mcdbench::pct(g[k].p / g[k].n),
                        mcdbench::pct(g[k].edp / g[k].n));
        }
    }

    const double a = fast[0].edp / fast[0].n;
    const double pid = fast[1].edp / fast[1].n;
    const double att = fast[2].edp / fast[2].n;
    std::printf("\nfast-group EDP-improvement ratios: adaptive/pid = "
                "%.2f, adaptive/attack = %.2f\n",
                pid != 0 ? a / pid : 0.0, att != 0 ? a / att : 0.0);
    std::printf("paper claim: adaptive ahead of [23] and ~3x ahead of "
                "[9] on this group -> %s\n",
                (a > pid && a > att) ? "ORDERING REPRODUCED" : "CHECK");
    return 0;
}
