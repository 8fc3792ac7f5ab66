/**
 * @file
 * Command-line front end to the library: run any benchmark under any
 * scheme, optionally sweep the whole suite, and emit human tables,
 * CSV, or JSON. The options are in `usage` below, which --help prints.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/mcdsim.hh"

namespace
{

const char usage[] = R"(usage: mcdsim_cli [options]
  --bench NAME|all      benchmark profile (default epic_decode)
  --scheme NAME         adaptive|pid|attack-decay|fixed (default adaptive)
  --insts N             instructions per run (default 600000)
  --seed N              workload seed (default 1)
  --baseline            also run the MCD baseline and print deltas
                        (human output only)
  --csv                 CSV output (one row per run)
  --json                JSON output (single run only)
  --list                list benchmark profiles and exit
  --help, -h            print this text and exit

A combination that would ignore a flag is a config error.

Run-cache maintenance (store at --cache-dir or MCDSIM_CACHE_DIR):
  mcdsim_cli cache stats [--cache-dir PATH]
  mcdsim_cli cache gc --max-bytes N [--cache-dir PATH]
  mcdsim_cli cache clear [--cache-dir PATH]
)";

void
printHuman(const mcd::SimResult &r)
{
    std::printf("%-12s %-18s  %8.3f ms  %8.3f mJ  IPC-eq %5.2f  "
                "f(GHz) %.2f/%.2f/%.2f\n",
                r.benchmark.c_str(), r.controller.c_str(),
                r.seconds() * 1e3, r.energy * 1e3,
                static_cast<double>(r.instructions) /
                    static_cast<double>(r.feCycles),
                r.domains[0].avgFrequency / 1e9,
                r.domains[1].avgFrequency / 1e9,
                r.domains[2].avgFrequency / 1e9);
}

/**
 * `mcdsim_cli cache <stats|gc|clear>`: maintenance of the
 * content-addressed run store. gc drops orphaned schema versions and
 * then the oldest entries until the store fits --max-bytes.
 */
int
cacheCommand(int argc, char **argv)
{
    const std::string action = argc > 2 ? argv[2] : "";
    std::string dir;
    std::uint64_t max_bytes = 0;
    bool have_max = false;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                mcd::fatal("option '%s' needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--cache-dir") {
            dir = value();
        } else if (arg == "--max-bytes") {
            max_bytes = mcd::parseUint(value(), "--max-bytes");
            have_max = true;
        } else {
            mcd::fatal("unknown cache option '%s'", arg.c_str());
        }
    }

    const mcd::CacheConfig cfg =
        mcd::resolveCacheConfig(mcd::CacheMode::Read, dir);
    mcd::RunCache cache(cfg);

    if (action == "stats") {
        const auto u = cache.usage();
        std::printf("cache %s (schema v%u): %llu entries, %llu bytes\n",
                    cfg.dir.c_str(),
                    static_cast<unsigned>(mcd::kRunSpecSchemaVersion),
                    static_cast<unsigned long long>(u.entries),
                    static_cast<unsigned long long>(u.bytes));
        return 0;
    }
    if (action == "gc") {
        if (!have_max)
            mcd::fatal("cache gc needs --max-bytes N");
        const auto removed = cache.gc(max_bytes);
        const auto u = cache.usage();
        std::printf("cache gc: removed %llu entries; %llu entries, "
                    "%llu bytes remain\n",
                    static_cast<unsigned long long>(removed),
                    static_cast<unsigned long long>(u.entries),
                    static_cast<unsigned long long>(u.bytes));
        return 0;
    }
    if (action == "clear") {
        const auto removed = cache.removeAll();
        std::printf("cache clear: removed %llu entries\n",
                    static_cast<unsigned long long>(removed));
        return 0;
    }
    mcd::fatal("unknown cache action '%s' (stats|gc|clear)",
               action.c_str());
}

} // namespace

int
main(int argc, char **argv)
try {
    if (argc > 1 && std::strcmp(argv[1], "cache") == 0)
        return cacheCommand(argc, argv);

    std::string bench = "epic_decode";
    std::string scheme = "adaptive";
    mcd::RunOptions opts;
    opts.instructions = 600'000;
    bool with_baseline = false;
    bool csv = false, json = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                mcd::fatal("option '%s' needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--bench") {
            bench = value();
        } else if (arg == "--scheme") {
            scheme = value();
        } else if (arg == "--insts") {
            opts.instructions = mcd::parseUint(value(), "--insts");
        } else if (arg == "--seed") {
            opts.seed = mcd::parseUint(value(), "--seed");
        } else if (arg == "--baseline") {
            with_baseline = true;
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--list") {
            for (const auto &b : mcd::benchmarkList()) {
                std::printf("%-12s %-12s %-5s %s\n", b.name.c_str(),
                            b.suite.c_str(),
                            b.expectedFastVarying ? "fast" : "slow",
                            b.description.c_str());
            }
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            std::fputs(usage, stdout);
            return 0;
        } else {
            mcd::fatal("unknown option '%s' (try --help)", arg.c_str());
        }
    }

    // Refuse combinations in which a flag would do nothing.
    auto conflict = [](bool both, const char *site, const char *other) {
        if (both)
            throw mcd::ConfigError(site, std::string("cannot be combined "
                                                     "with ") + other);
    };
    conflict(with_baseline && csv, "--baseline", "--csv");
    conflict(with_baseline && json, "--baseline", "--json");
    conflict(csv && json, "--json", "--csv");

    std::vector<std::string> names;
    if (bench == "all") {
        for (const auto &b : mcd::benchmarkList())
            names.push_back(b.name);
    } else {
        names.push_back(bench);
    }

    if (json && names.size() != 1)
        throw mcd::ConfigError("--json", "supports a single run");

    const mcd::ControllerKind kind =
        mcd::parseControllerKind(scheme, "--scheme");
    std::vector<mcd::SimResult> results;
    for (const auto &n : names) {
        mcd::SimResult r = mcd::run(mcd::schemeSpec(n, kind, opts));
        if (with_baseline) {
            const mcd::SimResult base =
                mcd::run(mcd::mcdBaselineSpec(n, opts));
            const mcd::Comparison c = mcd::compare(r, base);
            printHuman(r);
            std::printf("  vs baseline: E-sav %.2f%%  P-deg %.2f%%  "
                        "EDP %.2f%%\n",
                        c.energySavings * 100, c.perfDegradation * 100,
                        c.edpImprovement * 100);
        }
        results.push_back(std::move(r));
    }

    if (json) {
        std::printf("%s\n", mcd::resultJson(results[0]).c_str());
    } else if (csv) {
        mcd::writeResultsCsv(std::cout, results);
    } else if (!with_baseline) {
        for (const auto &r : results)
            printHuman(r);
    }
    return 0;
} catch (const mcd::McdError &e) {
    // Library errors (unknown benchmark, malformed spec, ...) are
    // user errors at the CLI surface: exit 1 cleanly, don't abort.
    mcd::fatal("%s", e.what());
}
