/**
 * @file
 * Observability smoke harness: a deliberately short sweep (two
 * benchmarks, MCD baseline + adaptive each) meant to be run with
 * --stats-out / --trace-out so CI can validate the artifacts. Used by
 * tools/trace/validate_trace.py, which also byte-compares two
 * same-seed runs at different --jobs counts — the artifacts must be
 * identical regardless of worker count.
 */

#include "bench_common.hh"

using namespace mcd;

int
main(int argc, char **argv)
{
    mcdbench::parseHarnessArgs(argc, argv);
    const RunOptions opts = mcdbench::runOptions(20000);

    mcdbench::banner("OBS SMOKE",
                     "short traced sweep for artifact validation");

    const std::vector<const char *> names = {"epic_decode", "gcc"};
    std::vector<RunSpec> specs;
    for (const char *name : names) {
        specs.push_back(mcdBaselineSpec(name, opts));
        specs.push_back(schemeSpec(name, ControllerKind::Adaptive, opts));
    }
    const std::vector<SimResult> results = mcdbench::runAll(std::move(specs));

    std::printf("%-12s %-10s | %12s %12s\n", "benchmark", "scheme",
                "insts", "events");
    mcdbench::rule(54);
    for (const auto &r : results) {
        std::printf("%-12s %-10s | %12llu %12llu\n",
                    r.benchmark.c_str(), r.controller.c_str(),
                    static_cast<unsigned long long>(r.instructions),
                    static_cast<unsigned long long>(r.eventsProcessed));
    }
    return 0;
}
