/**
 * @file
 * Section 4 reproduction: the three analytical remarks, verified both
 * symbolically (characteristic roots) and numerically (RK4 step
 * responses of the linearized and nonlinear closed loops).
 *
 *  Remark 1 - stability for any positive parameters;
 *  Remark 2 - smaller delays give faster response but weaker noise
 *             rejection;
 *  Remark 3 - damping in [0.5, 1] constrains T_m0/T_l0 to [2, 8]
 *             (at K_l = 1/2), trading overshoot against rise time.
 */

#include <cmath>

#include "bench_common.hh"

using namespace mcd;

namespace
{

ModelParams
scaledParams()
{
    ModelParams p;
    p.step = 1.0; // absorbs the unit-conversion constants
    p.tm0 = 50.0;
    p.tl0 = 8.0;
    p.qref = 6.0;
    return p;
}

void
remark1()
{
    mcdbench::banner("REMARK 1", "Stability over the parameter space");
    std::printf("%8s %8s %8s  %12s %12s  %s\n", "step", "Tm0", "Tl0",
                "Re(s1)", "Re(s2)", "stable");
    int stable = 0, total = 0;
    for (double step : {1.0 / 320, 0.1, 1.0}) {
        for (double tm0 : {2.0, 50.0, 400.0}) {
            for (double tl0 : {0.5, 8.0, 100.0}) {
                ModelParams p = scaledParams();
                p.step = step;
                p.tm0 = tm0;
                p.tl0 = tl0;
                const auto a = analyze(p);
                stable += a.stable();
                ++total;
                std::printf("%8.4f %8.1f %8.1f  %12.2e %12.2e  %s\n",
                            step, tm0, tl0, a.root1.real(),
                            a.root2.real(), a.stable() ? "yes" : "NO");
            }
        }
    }
    std::printf("=> %d / %d parameter points stable (paper: all)\n\n",
                stable, total);
}

void
remark2()
{
    mcdbench::banner(
        "REMARK 2",
        "Delay scale vs response speed and noise rejection");
    std::printf("%10s  %12s %12s  %16s\n", "delayx", "t_settle",
                "t_rise", "noisy actions");
    for (double scale : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        ModelParams p = scaledParams();
        p.tm0 *= scale;
        p.tl0 *= scale;
        const auto a = analyze(p);

        // Noise rejection measured on the *discrete* controller: count
        // actions triggered by a zero-mean noisy queue at reference.
        VfCurve vf;
        AdaptiveController::Config cfg;
        cfg.qref = 6.0;
        cfg.levelDelay = 50.0 * scale;
        cfg.deltaDelay = 8.0 * scale;
        AdaptiveController ctrl(vf, cfg);
        Rng rng(17);
        Hertz f = 600e6;
        for (int i = 0; i < 100000; ++i) {
            const double q = 6.0 + rng.gaussian(0.0, 2.0);
            const auto d = ctrl.sample(q, f, false);
            if (d.change)
                f = d.targetHz;
        }
        std::printf("%9.2fx  %12.1f %12.1f  %16llu\n", scale,
                    a.settlingTime(), a.riseTime(),
                    static_cast<unsigned long long>(
                        ctrl.stats().totalActions()));
    }
    std::printf("=> smaller delays settle faster but fire more "
                "spurious actions under noise\n\n");
}

void
remark3()
{
    mcdbench::banner("REMARK 3",
                     "Delay ratio Tm0/Tl0 vs damping and overshoot");

    ModelParams base = scaledParams();
    base.tl0 = base.l * base.gamma * base.k * base.step / 0.5; // Kl=0.5
    const auto bounds = delayRatioForDamping(base, 0.5, 1.0);
    std::printf("design rule at K_l = 0.5: Tm0/Tl0 in [%.1f, %.1f] "
                "(paper: [2, 8])\n\n",
                bounds.lo, bounds.hi);

    std::printf("%8s  %8s  %14s  %14s  %12s\n", "ratio", "xi",
                "Mp-analytic%", "Mp-simulated%", "t_rise-sim");
    for (double ratio : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
        ModelParams p = base;
        p.tm0 = ratio * p.tl0;
        const auto a = analyze(p);

        const auto traj = simulateLinear(
            p, signals::step(0.5, 0.9, 5.0), p.qref, 0.5, 400.0, 0.02);
        const auto m = measureStep(traj.time, traj.serviceRate, 0.9);
        std::printf("%8.1f  %8.3f  %14.1f  %14.1f  %12.2f\n", ratio,
                    a.dampingRatio(), a.percentOvershoot(),
                    m.percentOvershoot, m.riseTime);
    }
    std::printf("=> ratios inside [2, 8] keep overshoot small with "
                "good rise time;\n   smaller ratios overshoot, larger "
                "ones slow the response (paper Remark 3).\n   "
                "(Mp-analytic is the zero-free second-order prototype; "
                "the lambda->mu loop\n   carries a zero at -Km/Kl, so "
                "simulated overshoot sits above it uniformly --\n   "
                "the ordering and the [2, 8] sweet band are the "
                "claim.)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    mcdbench::clearOptions(); // analytic: --help only
    mcdbench::parseHarnessArgs(argc, argv);
    remark1();
    remark2();
    remark3();
    return 0;
}
