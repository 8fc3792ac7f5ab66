/**
 * @file
 * Ablation A3: the scheduler that reconciles the two FSMs' actions
 * (Section 3). Variants: combined double-step vs sequential single
 * steps for same-direction simultaneous triggers, and freezing vs not
 * freezing the FSMs during the physical switching time.
 */

#include "bench_common.hh"

using namespace mcd;

int
main(int argc, char **argv)
{
    mcdbench::parseHarnessArgs(argc, argv);
    const RunOptions opts = mcdbench::runOptions(400000);

    mcdbench::banner("ABLATION A3",
                     "Scheduler reconciliation and switch-freeze");

    struct Variant
    {
        const char *label;
        bool combine;
        bool freeze;
    };
    const Variant variants[] = {
        {"combine + freeze (default)", true, true},
        {"sequential + freeze", false, true},
        {"combine + no-freeze", true, false},
        {"sequential + no-freeze", false, false},
    };
    const std::vector<const char *> names = {"mpeg2_dec", "gcc", "swim"};

    std::vector<RunSpec> specs;
    for (const char *name : names) {
        specs.push_back(mcdBaselineSpec(name, opts));
        for (const auto &v : variants) {
            RunSpec s = schemeSpec(name, ControllerKind::Adaptive, opts);
            s.options.config.adaptive.combineSimultaneousActions = v.combine;
            s.options.config.adaptive.freezeWhileSwitching = v.freeze;
            specs.push_back(std::move(s));
        }
    }
    const std::vector<SimResult> results = mcdbench::runAll(std::move(specs));

    std::printf("%-12s %-28s | %8s %8s %8s %10s\n", "benchmark",
                "variant", "E-sav%", "P-deg%", "EDP+%", "cancels");
    mcdbench::rule(84);
    std::size_t idx = 0;
    for (const char *name : names) {
        const SimResult &base = results[idx++];
        for (const auto &v : variants) {
            const SimResult &r = results[idx++];
            const Comparison c = compare(r, base);
            std::uint64_t cancels = 0;
            for (const auto &d : r.domains)
                cancels += d.controllerStats.cancellations;
            std::printf("%-12s %-28s | %8.1f %8.1f %8.1f %10llu\n",
                        name, v.label, mcdbench::pct(c.energySavings),
                        mcdbench::pct(c.perfDegradation),
                        mcdbench::pct(c.edpImprovement),
                        static_cast<unsigned long long>(cancels));
            std::fflush(stdout);
        }
        mcdbench::rule(84);
    }
    std::printf("=> freezing during the ramp (the Figure 4 Start->Act "
                "window) damps over-reaction;\n   combined vs "
                "sequential double-steps differ marginally, as "
                "Section 3 expects.\n");
    return 0;
}
