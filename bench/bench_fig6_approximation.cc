/**
 * @file
 * Figure 6 reproduction: the continuous-time linear-increment model
 * approximates the discrete step-up behaviour of the FSM controller.
 * We drive the real AdaptiveController and the continuous model of
 * eq. (7) against the same abstract plant and constant load, and
 * print both frequency trajectories: the discrete staircase should
 * hug the continuous ramp (slope step/T_m).
 */

#include <cmath>

#include "bench_common.hh"

using namespace mcd;

int
main(int argc, char **argv)
{
    mcdbench::clearOptions(); // analytic: --help only
    mcdbench::parseHarnessArgs(argc, argv);
    mcdbench::banner(
        "FIGURE 6",
        "Continuous approximation of the discrete step-up action");

    // Shared scenario: queue pinned above reference so the level
    // signal is a constant +4; the controller ramps frequency up.
    const double signal = 4.0;
    const double tm0 = 50.0;
    VfCurve vf;
    const double step_norm = vf.stepSize() / vf.fMax();

    AdaptiveController::Config cfg;
    cfg.qref = 6.0;
    cfg.levelDelay = tm0;
    cfg.deltaDelay = 1e18; // isolate the level FSM
    cfg.scaleDownDelayByFrequency = false;
    AdaptiveController ctrl(vf, cfg);

    // Continuous model: f' = step * |signal| / T_m0 per sample.
    const double slope = step_norm * signal / tm0;

    std::printf("%10s %14s %14s %10s\n", "sample", "discrete-f",
                "continuous-f", "error");
    double cont = 0.55;
    Hertz disc = vf.clampFrequency(0.55 * vf.fMax());
    double max_err = 0.0;
    const int horizon = 2000;
    for (int i = 0; i <= horizon; ++i) {
        if (i % 100 == 0) {
            const double d_norm = disc / vf.fMax();
            const double err = std::abs(d_norm - cont);
            std::printf("%10d %14.5f %14.5f %10.5f\n", i, d_norm, cont,
                        err);
        }
        const auto d = ctrl.sample(6.0 + signal, disc, false);
        if (d.change)
            disc = d.targetHz;
        cont = std::min(cont + slope, 1.0);
        max_err = std::max(max_err,
                           std::abs(disc / vf.fMax() - cont));
    }
    mcdbench::rule();
    std::printf("max |discrete - continuous| over %d samples: %.5f "
                "(one step = %.5f)\n",
                horizon, max_err, step_norm);
    // The ceil() in the discrete delay makes the staircase slightly
    // slower than the ideal slope; the approximation claim is about
    // the *slopes* agreeing (Figure 6), so compare average slopes.
    const double disc_slope =
        (disc / vf.fMax() - 0.55) / static_cast<double>(horizon);
    const double rel_err = std::abs(disc_slope - slope) / slope;
    std::printf("average slope: discrete %.3e vs continuous %.3e "
                "(rel. error %.1f%%)\n",
                disc_slope, slope, rel_err * 100.0);
    std::printf("PASS criterion: slopes agree within 10%% -> %s\n",
                rel_err < 0.10 ? "PASS" : "CHECK");
    return 0;
}
