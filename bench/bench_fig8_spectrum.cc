/**
 * @file
 * Figure 8 reproduction: variance spectrum of the INT-domain queue
 * occupancy for epic-decode, estimated with the multitaper method,
 * plotted as variance density against variance wavelength (in
 * sampling periods). The dotted line of the paper — the boundary of
 * the "interesting" short-wavelength band used to identify fast
 * workload variation — is marked at the fixed-interval length.
 */

#include <cmath>

#include "bench_common.hh"

using namespace mcd;

int
main(int argc, char **argv)
{
    mcdbench::parseHarnessArgs(argc, argv);
    RunOptions opts = mcdbench::runOptions(600000);
    opts.recordTraces = true;
    opts.config.traceStride = 1;

    mcdbench::banner(
        "FIGURE 8",
        "epic_decode INT-queue variance spectrum (multitaper)");

    const SimResult r = std::move(
        mcdbench::runAll({mcdBaselineSpec("epic_decode", opts)})[0]);

    const double fs = 250e6; // sampling rate
    const auto vs = sineMultitaperPsd(r.intQueueTrace.valueData(), fs, 6);

    // Aggregate the spectrum into logarithmic wavelength bins
    // (wavelength in sampling periods = fs / frequency).
    const int bins = 24;
    const double wl_lo = 2.0, wl_hi = 1e6;
    std::vector<double> density(bins, 0.0);
    std::vector<int> counts(bins, 0);
    for (std::size_t i = 0; i < vs.frequency.size(); ++i) {
        const double wl = fs / vs.frequency[i];
        if (wl < wl_lo || wl >= wl_hi)
            continue;
        const int b = static_cast<int>(std::log(wl / wl_lo) /
                                       std::log(wl_hi / wl_lo) * bins);
        if (b >= 0 && b < bins) {
            density[b] += vs.density[i];
            ++counts[b];
        }
    }

    double dmax = 0.0;
    for (int b = 0; b < bins; ++b) {
        if (counts[b])
            density[b] /= counts[b];
        dmax = std::max(dmax, density[b]);
    }

    std::printf("%16s  %14s\n", "wavelength", "density");
    mcdbench::rule(84);
    const double interval = 2500.0; // fixed-interval length marker
    for (int b = bins - 1; b >= 0; --b) {
        const double wl =
            wl_lo * std::pow(wl_hi / wl_lo,
                             (static_cast<double>(b) + 0.5) / bins);
        const int bars =
            dmax > 0 ? static_cast<int>(density[b] / dmax * 50) : 0;
        std::printf("%13.0f sp  %14.4g  |", wl, density[b]);
        for (int i = 0; i < bars; ++i)
            std::putchar('*');
        if (wl < interval * 1.5 && wl > interval / 1.5)
            std::printf("   <-- fixed-interval boundary (%g sp)",
                        interval);
        std::putchar('\n');
    }
    mcdbench::rule(84);
    const double band_frac = vs.bandVarianceFraction(1000.0, 25000.0);
    std::printf("total queue variance:          %10.4f entries^2\n",
                vs.totalVariance());
    std::printf("short-wavelength (<%.0f sp):   %10.4f entries^2 "
                "(fraction %.3f)\n",
                interval, vs.shortWavelengthVariance(interval),
                vs.fastVarianceFraction(interval));
    std::printf("interesting band (1k-25k sp):  %10.4f entries^2 "
                "(fraction %.3f)\n",
                band_frac * vs.totalVariance(), band_frac);
    std::printf("Paper shape: for this slow-variation benchmark, most "
                "variance lies outside\nthe interesting band -> %s\n",
                band_frac < 0.5 ? "REPRODUCED" : "CHECK");
    return 0;
}
