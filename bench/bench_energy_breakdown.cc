/**
 * @file
 * Energy-breakdown table: per-domain, per-category joules for the
 * full-speed MCD baseline versus the adaptive scheme, showing *where*
 * the savings come from (idle-domain clock/leakage and V^2-scaled
 * activity in the scaled domains, with the fixed-speed front end
 * untouched — the structural picture behind the paper's Section 5
 * results).
 */

#include "bench_common.hh"

using namespace mcd;

namespace
{

void
printBreakdown(const SimResult &r, bool five_domain)
{
    const std::size_t domain_count = five_domain ? 5 : 4;
    std::printf("%-12s", "category");
    for (std::size_t d = 0; d < domain_count; ++d)
        std::printf(" %10s", domainName(static_cast<DomainId>(d)));
    std::printf(" %10s\n", "total");

    for (std::size_t c = 0; c < numEnergyCategories; ++c) {
        double row_sum = 0.0;
        for (std::size_t d = 0; d < domain_count; ++d)
            row_sum += r.energyBreakdown[d][c];
        if (row_sum <= 0.0)
            continue;
        std::printf("%-12s",
                    energyCategoryName(static_cast<EnergyCategory>(c)));
        for (std::size_t d = 0; d < domain_count; ++d)
            std::printf(" %9.3f u", r.energyBreakdown[d][c] * 1e6);
        std::printf(" %9.3f u\n", row_sum * 1e6);
    }

    std::printf("%-12s", "DOMAIN SUM");
    double total = 0.0;
    for (std::size_t d = 0; d < domain_count; ++d) {
        double col = 0.0;
        for (std::size_t c = 0; c < numEnergyCategories; ++c)
            col += r.energyBreakdown[d][c];
        std::printf(" %9.3f u", col * 1e6);
        total += col;
    }
    std::printf(" %9.3f u\n", total * 1e6);
}

} // namespace

int
main(int argc, char **argv)
{
    mcdbench::parseHarnessArgs(argc, argv);
    const RunOptions opts = mcdbench::runOptions(400000);

    mcdbench::banner("ENERGY BREAKDOWN",
                     "Per-domain, per-category joules (uJ): baseline "
                     "vs adaptive");

    const std::vector<const char *> names = {"adpcm_enc", "swim"};
    std::vector<RunSpec> specs;
    for (const char *name : names) {
        specs.push_back(mcdBaselineSpec(name, opts));
        specs.push_back(schemeSpec(name, ControllerKind::Adaptive, opts));
    }
    const std::vector<SimResult> results = mcdbench::runAll(std::move(specs));

    std::size_t idx = 0;
    for (const char *name : names) {
        const SimResult &base = results[idx++];
        const SimResult &run = results[idx++];

        std::printf("\n%s - MCD baseline (%.3f ms, %.3f mJ):\n", name,
                    base.seconds() * 1e3, base.energy * 1e3);
        printBreakdown(base, false);
        std::printf("\n%s - adaptive (%.3f ms, %.3f mJ):\n", name,
                    run.seconds() * 1e3, run.energy * 1e3);
        printBreakdown(run, false);

        // Attribute the savings per domain.
        std::printf("\nsavings by domain:");
        for (std::size_t d = 0; d < 4; ++d) {
            double b = 0, a = 0;
            for (std::size_t c = 0; c < numEnergyCategories; ++c) {
                b += base.energyBreakdown[d][c];
                a += run.energyBreakdown[d][c];
            }
            std::printf("  %s %+.1f%%",
                        domainName(static_cast<DomainId>(d)),
                        b > 0 ? 100.0 * (1.0 - a / b) : 0.0);
        }
        std::printf("\n");
        mcdbench::rule(92);
    }
    std::printf("=> savings concentrate in the under-utilized scaled "
                "domains (FP for integer codecs,\n   INT for FP "
                "streamers); the fixed-speed front end is the "
                "untouchable floor.\n");
    return 0;
}
