/**
 * @file
 * Ablation A4: DVFS switching-cost model (Section 3's design
 * discussion). Under the XScale-style model (fast ramp, no stall) the
 * fine-grained single-step policy of Table 1 is right; under a
 * Transmeta-style model (slow ramp, PLL-relock stall per transition)
 * the same fine steps thrash, and the paper prescribes larger steps
 * and higher trigger thresholds instead.
 */

#include "bench_common.hh"

using namespace mcd;

int
main(int argc, char **argv)
{
    mcdbench::parseHarnessArgs(argc, argv);
    const RunOptions opts = mcdbench::runOptions(400000);

    mcdbench::banner("ABLATION A4",
                     "XScale-style vs Transmeta-style switching cost");

    struct Variant
    {
        const char *label;
        DvfsModel model;
        std::uint32_t steps;
        double delay_scale;
        std::uint64_t insts_divisor; ///< shorter run for the slowest case
    };
    const Variant variants[] = {
        {"xscale, fine steps (paper)", DvfsModel::xscale(), 1, 1.0, 1},
        {"xscale, coarse steps x16", DvfsModel::xscale(), 16, 1.0, 1},
        // Fine-grained stepping on a stalling regulator is the
        // pathological case Section 3 warns about: it runs orders of
        // magnitude slower, so sample it at reduced length.
        {"transmeta, fine steps", DvfsModel::transmeta(), 1, 1.0, 8},
        {"transmeta, coarse x16 + 4x delay", DvfsModel::transmeta(), 16,
         4.0, 1},
    };
    const std::vector<const char *> names = {"epic_decode", "swim"};

    // Per benchmark: the full-length baseline, then per variant the
    // adaptive run plus (for shortened variants) a matching-length
    // baseline so the comparison stays apples-to-apples.
    std::vector<RunSpec> specs;
    for (const char *name : names) {
        specs.push_back(mcdBaselineSpec(name, opts));
        for (const auto &v : variants) {
            RunOptions o = opts;
            o.instructions /= v.insts_divisor;
            o.config.dvfsModel = v.model;
            o.config.adaptive.stepsPerAction = v.steps;
            o.config.adaptive.levelDelay *= v.delay_scale;
            o.config.adaptive.deltaDelay *= v.delay_scale;
            specs.push_back(schemeSpec(name, ControllerKind::Adaptive, o));
            if (v.insts_divisor != 1)
                specs.push_back(mcdBaselineSpec(name, o));
        }
    }
    const std::vector<SimResult> results = mcdbench::runAll(std::move(specs));

    std::printf("%-12s %-34s | %8s %8s %8s %8s\n", "benchmark",
                "variant", "E-sav%", "P-deg%", "EDP+%", "trans");
    mcdbench::rule(92);
    std::size_t idx = 0;
    for (const char *name : names) {
        const SimResult &base = results[idx++];
        for (const auto &v : variants) {
            const SimResult &r = results[idx++];
            const SimResult &cmp_base =
                v.insts_divisor != 1 ? results[idx++] : base;
            const Comparison c = compare(r, cmp_base);
            std::uint64_t trans = 0;
            for (const auto &d : r.domains)
                trans += d.transitions;
            std::printf("%-12s %-34s | %8.1f %8.1f %8.1f %8llu\n", name,
                        v.label, mcdbench::pct(c.energySavings),
                        mcdbench::pct(c.perfDegradation),
                        mcdbench::pct(c.edpImprovement),
                        static_cast<unsigned long long>(trans));
            std::fflush(stdout);
        }
        mcdbench::rule(92);
    }
    std::printf("=> with slow/stalling regulators, fewer and larger "
                "adjustments recover most of the\n   benefit, matching "
                "Section 3's Transmeta-style guidance.\n");
    return 0;
}
