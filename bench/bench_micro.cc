/**
 * @file
 * Google-benchmark microbenchmarks: cost of the controller decision
 * paths (the paper argues the adaptive decision logic is simple and
 * cheap — Section 3's hardware discussion), plus multitaper-PSD
 * throughput for harness-scaling estimates. Simulator, branch
 * predictor and cache speed are perfbench's to measure
 * (perfbench/run.py).
 */

#include <benchmark/benchmark.h>

#include "core/mcdsim.hh"

namespace
{

using namespace mcd;

void
BM_SignalFsmSample(benchmark::State &state)
{
    SignalFsm fsm;
    double q = 0.0;
    for (auto _ : state) {
        q = q > 10.0 ? 0.0 : q + 0.5;
        benchmark::DoNotOptimize(fsm.sample(q - 6.0, 0.8));
    }
}
BENCHMARK(BM_SignalFsmSample);

void
BM_AdaptiveControllerSample(benchmark::State &state)
{
    VfCurve vf;
    AdaptiveController ctrl(vf, AdaptiveController::Config{});
    Hertz f = 800e6;
    double q = 0.0;
    for (auto _ : state) {
        q = q > 14.0 ? 0.0 : q + 0.25;
        const auto d = ctrl.sample(q, f, false);
        if (d.change)
            f = d.targetHz;
        benchmark::DoNotOptimize(f);
    }
}
BENCHMARK(BM_AdaptiveControllerSample);

void
BM_PidControllerSample(benchmark::State &state)
{
    VfCurve vf;
    PidController ctrl(vf, PidController::Config{});
    Hertz f = 800e6;
    double q = 0.0;
    for (auto _ : state) {
        q = q > 14.0 ? 0.0 : q + 0.25;
        const auto d = ctrl.sample(q, f, false);
        if (d.change)
            f = d.targetHz;
        benchmark::DoNotOptimize(f);
    }
}
BENCHMARK(BM_PidControllerSample);

void
BM_AttackDecaySample(benchmark::State &state)
{
    VfCurve vf;
    AttackDecayController ctrl(vf, AttackDecayController::Config{});
    Hertz f = 800e6;
    double q = 0.0;
    for (auto _ : state) {
        q = q > 14.0 ? 0.0 : q + 0.25;
        const auto d = ctrl.sample(q, f, false);
        if (d.change)
            f = d.targetHz;
        benchmark::DoNotOptimize(f);
    }
}
BENCHMARK(BM_AttackDecaySample);

void
BM_MultitaperPsd(benchmark::State &state)
{
    Rng rng(5);
    std::vector<double> series(static_cast<std::size_t>(state.range(0)));
    for (auto &v : series)
        v = rng.gaussian(6.0, 2.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(sineMultitaperPsd(series, 250e6, 5));
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MultitaperPsd)->Range(1 << 12, 1 << 16)->Complexity();

} // namespace

BENCHMARK_MAIN();
