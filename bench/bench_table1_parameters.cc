/**
 * @file
 * Table 1 reproduction: print the full simulation configuration in
 * the paper's format, resolved from the library defaults, so a reader
 * can diff it against the published table line by line.
 */

#include "bench_common.hh"

using namespace mcd;

int
main(int argc, char **argv)
{
    mcdbench::clearOptions(); // analytic: --help only
    mcdbench::parseHarnessArgs(argc, argv);
    mcdbench::banner("TABLE 1", "Summary of All Simulation Parameters");

    const SimConfig cfg;
    const VfCurve vf(cfg.vfRange);

    auto row = [](const char *name, const char *fmt, auto... args) {
        std::printf("  %-38s ", name);
        std::printf(fmt, args...);
        std::printf("\n");
    };

    row("Domain frequency range", "%.0f MHz - %.1f GHz", vf.fMin() / 1e6,
        vf.fMax() / 1e9);
    row("Domain voltage range", "%.2f V - %.2f V", vf.vMin(), vf.vMax());
    row("Frequency/voltage change speed", "%.1f ns/MHz",
        cfg.dvfsModel.nsPerMhz);
    row("Signal sampling rate", "%.0f MHz", cfg.samplingRate / 1e6);
    row("Time delays (sampling periods)", "T_l0 = %.0f, T_m0 = %.0f",
        cfg.adaptive.deltaDelay, cfg.adaptive.levelDelay);
    row("Step size (f)", "%.2f MHz (%u steps over the range)",
        vf.stepSize() / 1e6, vf.stepCount());
    row("Step size (V)", "%.2f mV",
        (vf.vMax() - vf.vMin()) / vf.stepCount() * 1e3);
    row("Reference queue point", "%.0f INT, %.0f FP, %.0f LS",
        cfg.qref[0], cfg.qref[1], cfg.qref[2]);
    row("Deviation window (DW)", "+-%.0f level, %.0f delta",
        cfg.adaptive.levelDeviationWindow,
        cfg.adaptive.deltaDeviationWindow);
    row("Domain clock jitter", "+-10 ps, normally distributed%s",
        cfg.jitterEnabled ? "" : " (disabled)");
    row("Inter-domain synchro window", "%.0f ps",
        static_cast<double>(cfg.syncWindow) / 1000.0);
    row("Branch predictor: 2-level", "L1 %u, hist %u, L2 %u",
        cfg.predictor.l1Entries, cfg.predictor.historyBits,
        cfg.predictor.l2Entries);
    row("Bimodal size", "%u", cfg.predictor.bimodalEntries);
    row("BTB", "%u sets, %u-way", cfg.predictor.btbSets,
        cfg.predictor.btbAssoc);
    row("Combined (chooser) size", "%u", cfg.predictor.chooserEntries);
    row("Decode/Issue/Retire width", "%u / %u+%u+%u / %u",
        cfg.fetchWidth, cfg.intIssueWidth, cfg.fpIssueWidth,
        cfg.lsIssueWidth, cfg.retireWidth);
    row("L1 data cache", "%u KB, %u-way", cfg.memory.l1d.sizeKb,
        cfg.memory.l1d.assoc);
    row("L1 instruction cache", "%u KB, %u-way", cfg.memory.l1i.sizeKb,
        cfg.memory.l1i.assoc);
    row("L2 unified cache", "%u KB, %s", cfg.memory.l2.sizeKb,
        cfg.memory.l2.assoc == 1 ? "direct mapped" : "set assoc");
    row("Cache access time", "%u cycles L1, %.0f ns L2",
        cfg.l1dHitCycles, cfg.memory.l2LatencyNs);
    row("Memory access latency", "%.0f ns first chunk, %.0f ns inter",
        cfg.memory.memFirstChunkNs, cfg.memory.memInterChunkNs);
    row("Integer ALUs", "%u + 1 mult/div unit", cfg.intAlus);
    row("Floating-point ALUs", "%u + 1 mult/div/sqrt unit", cfg.fpAlus);
    row("Issue queue size", "%u INT, %u FP, %u LS", cfg.intQueueSize,
        cfg.fpQueueSize, cfg.lsQueueSize);
    row("Reorder buffer size", "%u", cfg.robSize);
    row("MSHRs (outstanding L1D misses)", "%u", cfg.mshrCount);

    mcdbench::rule();
    std::printf("Deltas vs the published table are documented in "
                "DESIGN.md (T_l0 typo,\nq_ref calibration, issue-width "
                "interpretation).\n");
    return 0;
}
