/**
 * @file
 * End-to-end integration tests: the paper's qualitative claims must
 * hold on this substrate, at reduced scale, for every ctest run.
 */

#include <gtest/gtest.h>

#include "core/mcdsim.hh"

namespace mcd
{
namespace
{

RunOptions
mediumOpts(std::uint64_t insts = 200000)
{
    RunOptions opts;
    opts.instructions = insts;
    return opts;
}

TEST(EndToEnd, AdaptiveSavesEnergyOnAverage)
{
    // Subset spanning all three suites.
    const std::vector<std::string> names = {"epic_decode", "adpcm_enc",
                                            "gzip", "swim"};
    double energy = 0.0, perf = 0.0;
    for (const auto &n : names) {
        const auto opts = mediumOpts();
        const SimResult base = run(mcdBaselineSpec(n, opts));
        const SimResult adaptive =
            run(schemeSpec(n, ControllerKind::Adaptive, opts));
        const Comparison c = compare(adaptive, base);
        energy += c.energySavings;
        perf += c.perfDegradation;
    }
    energy /= static_cast<double>(names.size());
    perf /= static_cast<double>(names.size());
    EXPECT_GT(energy, 0.02);  // meaningful savings
    EXPECT_LT(perf, 0.10);    // bounded slowdown
}

TEST(EndToEnd, Figure7ShapeFpFrequencyFollowsFpPhases)
{
    // epic_decode: FP domain must sit near f_min during the integer
    // phases and rise during the FP burst (Figure 7).
    RunOptions opts = mediumOpts(500000);
    opts.recordTraces = true;
    const SimResult r =
        run(schemeSpec("epic_decode", ControllerKind::Adaptive, opts));
    const auto buckets = r.fpFreqTrace.bucketMeans(20);
    ASSERT_EQ(buckets.size(), 20u);
    double lo = 2.0, hi = 0.0;
    for (double b : buckets) {
        lo = std::min(lo, b);
        hi = std::max(hi, b);
    }
    EXPECT_LT(lo, 0.45); // deep down-scaling in idle FP phases
    EXPECT_GT(hi, 0.85); // near-full speed in the FP burst
}

TEST(EndToEnd, SpectralClassifierSeparatesFastFromSlow)
{
    // Queue-occupancy spectra (Figure 8 pipeline): a designed-fast
    // benchmark must show more short-wavelength variance than a
    // designed-slow one.
    RunOptions opts = mediumOpts(400000);
    opts.recordTraces = true;
    opts.config.traceStride = 1;

    const SimResult fast = run(mcdBaselineSpec("mpeg2_dec", opts));
    const SimResult slow = run(mcdBaselineSpec("adpcm_enc", opts));

    // Band between sample-scale noise and the fixed-interval length.
    const auto vf = sineMultitaperPsd(fast.fpQueueTrace.valueData(),
                                      250e6, 5);
    const auto vs = sineMultitaperPsd(slow.intQueueTrace.valueData(),
                                      250e6, 5);
    const double fast_frac = vf.bandVarianceFraction(1000.0, 25000.0) * vf.totalVariance();
    const double slow_frac = vs.bandVarianceFraction(1000.0, 25000.0) * vs.totalVariance();
    EXPECT_GT(fast_frac, slow_frac);
}

TEST(EndToEnd, AdaptiveBeatsPidOnFastVaryingWorkload)
{
    // The headline fast-variation claim at reduced scale: mpeg2's
    // macroblock-cadence swings defeat the 10 us fixed interval.
    const auto opts = mediumOpts(400000);
    const SimResult base = run(mcdBaselineSpec("mpeg2_dec", opts));
    const SimResult adaptive =
        run(schemeSpec("mpeg2_dec", ControllerKind::Adaptive, opts));
    const SimResult pid =
        run(schemeSpec("mpeg2_dec", ControllerKind::Pid, opts));
    const Comparison ca = compare(adaptive, base);
    const Comparison cp = compare(pid, base);
    EXPECT_GT(ca.edpImprovement, cp.edpImprovement);
}

TEST(EndToEnd, StabilityInPracticeNoRunawayFrequencyOscillation)
{
    // Remark 1 corollary: under any of the workloads the controller
    // never wedges at a bound while the queue signals the opposite.
    RunOptions opts = mediumOpts();
    opts.recordTraces = true;
    const SimResult r =
        run(schemeSpec("gcc", ControllerKind::Adaptive, opts));
    // INT domain: time-average far from both rails.
    EXPECT_GT(r.domains[0].avgFrequency, 300e6);
    EXPECT_LT(r.domains[0].avgFrequency, 999e6);
    // And the queue average stays in the interior of the queue range.
    EXPECT_GT(r.domains[0].avgQueueOccupancy, 1.0);
    EXPECT_LT(r.domains[0].avgQueueOccupancy, 19.0);
}

TEST(EndToEnd, EnergySavingsComeFromScaledDomains)
{
    // For an integer-only benchmark the FP domain is the big saver.
    const auto opts = mediumOpts();
    const SimResult base = run(mcdBaselineSpec("adpcm_enc", opts));
    const SimResult adaptive =
        run(schemeSpec("adpcm_enc", ControllerKind::Adaptive, opts));
    const double fp_base = base.domains[1].energy;
    const double fp_run = adaptive.domains[1].energy;
    EXPECT_LT(fp_run, 0.6 * fp_base);
}

TEST(EndToEnd, ContinuousModelPredictsDiscreteLoopEquilibrium)
{
    // Section 4 bridge: the nonlinear continuous model and the real
    // FSM controller driving the abstract plant settle at the same
    // operating point for the same constant load.
    ModelParams mp;
    mp.qref = 6.0;
    mp.tm0 = 50.0;
    mp.tl0 = 8.0;
    mp.step = 1.0 / 320.0;
    mp.t1 = 0.2;
    mp.c2 = 0.8;
    mp.gamma = 0.05;
    const double lambda = 0.7;

    const auto traj = simulateNonlinear(
        mp, signals::constant(lambda), 0.0, 1.0, 3e5, 1.0);

    VfCurve vf;
    AdaptiveController::Config ac;
    ac.qref = 6.0;
    AdaptiveController ctrl(vf, ac);
    AbstractQueuePlant::Config pc;
    pc.gamma = 0.05;
    AbstractQueuePlant plant(pc);
    Hertz f = vf.fMax();
    for (int i = 0; i < 300000; ++i) {
        const double q = plant.step(lambda, vf.normalized(f));
        const auto d = ctrl.sample(q, f, false);
        if (d.change)
            f = d.targetHz;
    }

    EXPECT_NEAR(traj.frequency.back(), vf.normalized(f), 0.08);
    EXPECT_NEAR(traj.queue.back(), plant.queue(), 2.5);
}

} // namespace
} // namespace mcd
