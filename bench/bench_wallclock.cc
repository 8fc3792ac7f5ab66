/**
 * @file
 * Execution-layer wall-clock benchmark: times one suite sweep (per
 * benchmark an MCD baseline plus an adaptive run) through
 * ParallelRunner::runOutcomes at jobs = 1 and at jobs = N, and
 * reports per-run simulator throughput (instructions/sec, kernel
 * events/sec). It drives the exec layer directly, below the cache,
 * so --jobs is its only flag.
 *
 * Human-readable narration goes to stderr; stdout carries a single
 * JSON document so `bench_wallclock > BENCH_exec.json` captures the
 * machine-readable record (see tools/perf/run_bench.sh).
 *
 * Wall-clock time is banned from src/ by tools/lint (simulated runs
 * must be pure functions of config and seed); this harness measures
 * host elapsed time, which is exactly the quantity that may not leak
 * into simulation results, so the timing lives out here in bench/.
 */

#include <chrono>
#include <thread>

#include "bench_common.hh"

using namespace mcd;

namespace
{

struct SweepStats
{
    double seconds = 0.0;
    std::uint64_t instructions = 0;
    std::uint64_t events = 0;
    std::uint64_t wallTicksSum = 0; ///< fingerprint for cross-checks
    std::size_t failed = 0;
};

SweepStats
timedSweep(const ParallelRunner &runner, const std::vector<RunTask> &tasks)
{
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<RunOutcome> outcomes = runner.runOutcomes(tasks);
    const auto t1 = std::chrono::steady_clock::now();

    SweepStats s;
    s.seconds = std::chrono::duration<double>(t1 - t0).count();
    for (const auto &o : outcomes) {
        s.failed += o.ok() ? 0 : 1;
        s.instructions += o.result.instructions;
        s.events += o.result.eventsProcessed;
        s.wallTicksSum += o.result.wallTicks;
    }
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    mcdbench::restrictOptions({"--jobs"});
    mcdbench::parseHarnessArgs(argc, argv);

    RunOptions opts;
    opts.instructions = mcdbench::runLength(200000);

    const auto shared = std::make_shared<const RunOptions>(opts);
    std::vector<RunTask> tasks;
    for (const auto &info : benchmarkList()) {
        for (const RunSpec &s :
             {mcdBaselineSpec(info.name, opts),
              schemeSpec(info.name, ControllerKind::Adaptive, opts)})
            tasks.push_back({s.benchmark, s.kind, s.controller, s.seed,
                             shared});
    }

    const std::size_t par_jobs = configuredJobs();
    std::fprintf(stderr,
                 "bench_wallclock: %zu tasks x %llu instructions; "
                 "parallel jobs = %zu (hardware concurrency %u)\n",
                 tasks.size(),
                 static_cast<unsigned long long>(opts.instructions),
                 par_jobs, std::thread::hardware_concurrency());

    std::fprintf(stderr, "serial sweep (jobs = 1)...\n");
    const SweepStats serial = timedSweep(ParallelRunner(1), tasks);
    std::fprintf(stderr, "  %.3f s\n", serial.seconds);

    std::fprintf(stderr, "parallel sweep (jobs = %zu)...\n", par_jobs);
    ExecProfile profile;
    ParallelRunner par_runner(par_jobs);
    par_runner.setProfile(&profile);
    const SweepStats parallel = timedSweep(par_runner, tasks);
    std::fprintf(stderr, "  %.3f s\n", parallel.seconds);

    if (serial.failed || parallel.failed) {
        std::fprintf(stderr, "bench_wallclock: %zu serial and %zu "
                             "parallel runs failed\n",
                     serial.failed, parallel.failed);
        return 1;
    }
    if (serial.wallTicksSum != parallel.wallTicksSum ||
        serial.instructions != parallel.instructions) {
        std::fprintf(stderr,
                     "bench_wallclock: serial and parallel sweeps "
                     "disagree; results are not trustworthy\n");
        return 1;
    }

    const double speedup =
        parallel.seconds > 0.0 ? serial.seconds / parallel.seconds : 0.0;
    std::fprintf(stderr, "speedup: %.2fx; throughput (parallel): "
                 "%.3g insts/s, %.3g events/s\n",
                 speedup,
                 static_cast<double>(parallel.instructions) /
                     parallel.seconds,
                 static_cast<double>(parallel.events) / parallel.seconds);

    std::printf("{\n");
    std::printf("  \"harness\": \"bench_wallclock\",\n");
    std::printf("  \"hardware_concurrency\": %u,\n",
                std::thread::hardware_concurrency());
    std::printf("  \"jobs\": %zu,\n", par_jobs);
    std::printf("  \"tasks\": %zu,\n", tasks.size());
    std::printf("  \"instructions_per_run\": %llu,\n",
                static_cast<unsigned long long>(opts.instructions));
    std::printf("  \"total_instructions\": %llu,\n",
                static_cast<unsigned long long>(parallel.instructions));
    std::printf("  \"total_events\": %llu,\n",
                static_cast<unsigned long long>(parallel.events));
    std::printf("  \"serial_seconds\": %.6f,\n", serial.seconds);
    std::printf("  \"parallel_seconds\": %.6f,\n", parallel.seconds);
    std::printf("  \"speedup\": %.4f,\n", speedup);
    std::printf("  \"serial_insts_per_sec\": %.1f,\n",
                static_cast<double>(serial.instructions) / serial.seconds);
    std::printf("  \"serial_events_per_sec\": %.1f,\n",
                static_cast<double>(serial.events) / serial.seconds);
    std::printf("  \"parallel_insts_per_sec\": %.1f,\n",
                static_cast<double>(parallel.instructions) /
                    parallel.seconds);
    std::printf("  \"parallel_events_per_sec\": %.1f,\n",
                static_cast<double>(parallel.events) / parallel.seconds);
    std::printf("  \"exec_profile\": %s\n", profile.renderJson().c_str());
    std::printf("}\n");
    return 0;
}
