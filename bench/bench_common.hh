/**
 * @file
 * Shared glue for the experiment harnesses: a declarative option
 * table every harness parses (jobs, observability, fault tolerance,
 * run cache — one registration point per flag, generated --help),
 * run-length control via the MCDSIM_INSTS environment variable, the
 * one launch path (runOptions() + runCampaign() / runAll()), suite
 * listing, and table formatting helpers. Each harness regenerates one
 * table or figure of the paper (see DESIGN.md's experiment index and
 * EXPERIMENTS.md for paper-vs-measured records).
 */

#ifndef MCDSIM_BENCH_BENCH_COMMON_HH
#define MCDSIM_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/mcdsim.hh"

namespace mcdbench
{

/** argv[0] for error messages; parseHarnessArgs records it. */
inline const char *&
programName()
{
    static const char *name = "mcdsim";
    return name;
}

/** Instructions per run: MCDSIM_INSTS overrides the default. */
inline std::uint64_t
runLength(std::uint64_t def = 600000)
{
    if (const char *env = std::getenv("MCDSIM_INSTS")) {
        std::uint64_t v = 0;
        try {
            v = mcd::parseUint(env, "MCDSIM_INSTS");
        } catch (const mcd::ConfigError &) {
        }
        if (v > 0)
            return v;
        std::fprintf(stderr,
                     "mcdsim: ignoring malformed MCDSIM_INSTS='%s' "
                     "(want a positive integer); using %llu\n",
                     env, static_cast<unsigned long long>(def));
    }
    return def;
}

/**
 * @{ Destination paths from `--stats-out` / `--trace-out` ("" = that
 * side of the observability layer stays off). Function-local statics
 * so the header stays include-anywhere.
 */
inline std::string &
statsOutPath()
{
    static std::string path;
    return path;
}

inline std::string &
traceOutPath()
{
    static std::string path;
    return path;
}
/** @} */

/**
 * @{ Fault-tolerance knobs from `--faults` / `--event-budget`.
 * faultSpec() starts as the MCDSIM_FAULTS environment value so a spec
 * can be injected into any harness without touching its command line;
 * the flag overrides it.
 */
inline std::string &
faultSpec()
{
    static std::string spec = [] {
        const char *env = std::getenv("MCDSIM_FAULTS");
        return std::string(env ? env : "");
    }();
    return spec;
}

inline std::uint64_t &
eventBudget()
{
    static std::uint64_t budget = 0;
    return budget;
}
/** @} */

/**
 * @{ Run-cache knobs from `--cache MODE` and `--cache-dir PATH`. The
 * cache defaults to off; the directory falls back to MCDSIM_CACHE_DIR
 * (resolved in openRunCache below).
 */
inline mcd::CacheMode &
cacheModeFlag()
{
    static mcd::CacheMode mode = mcd::CacheMode::Off;
    return mode;
}

inline std::string &
cacheDirFlag()
{
    static std::string dir;
    return dir;
}
/** @} */

/**
 * Structured argument failure, rendered like the McdError taxonomy
 * ("config error at <site>: <context>") so harness CLI errors grep
 * the same as library ones. Exits 2 (usage error).
 */
[[noreturn]] inline void
argError(const char *argv0, const char *site, const std::string &context)
{
    std::fprintf(stderr, "%s: config error at %s: %s\n", argv0, site,
                 context.c_str());
    std::exit(2);
}

/**
 * One command-line option every harness understands. The table below
 * is the single registration point: adding an entry gives the flag to
 * all harnesses at once — parsing, `--flag value` and `--flag=value`
 * forms, validation with the uniform argError() style, and a line in
 * the generated --help, with no per-harness code.
 */
struct OptionDef
{
    /** Flag name including the leading dashes, e.g. "--jobs". */
    const char *name;

    /** Placeholder in usage text, e.g. "N" or "PATH". */
    const char *valueName;

    /** One-line description for --help. */
    const char *help;

    /** Consume the value. May throw mcd::ConfigError (numeric flags
     *  parse with mcd::parseUint), which parseHarnessArgs renders
     *  through argError(). */
    std::function<void(const std::string &)> apply;
};

/**
 * The shared option table. Harness-specific flags can be appended via
 * addHarnessOption() before parseHarnessArgs(); the built-in set is
 * registered on first use.
 */
inline std::vector<OptionDef> &
optionTable()
{
    static std::vector<OptionDef> table = {
        {"--jobs", "N", "worker threads (overrides MCDSIM_JOBS)",
         [](const std::string &v) {
             const std::uint64_t jobs = mcd::parseUint(
                 v, "--jobs", std::numeric_limits<std::size_t>::max());
             if (jobs == 0)
                 throw mcd::ConfigError(
                     "--jobs", "expected a positive integer, got '0'");
             mcd::setConfiguredJobs(static_cast<std::size_t>(jobs));
         }},
        {"--stats-out", "PATH", "write stats dumps (text + PATH.json)",
         [](const std::string &v) { statsOutPath() = v; }},
        {"--trace-out", "PATH", "write Chrome trace-event documents",
         [](const std::string &v) { traceOutPath() = v; }},
        {"--faults", "SPEC", "fault plan (overrides MCDSIM_FAULTS)",
         [](const std::string &v) { faultSpec() = v; }},
        {"--event-budget", "N",
         "abort a run after N kernel events (a budget turns off "
         "idle-domain parking)",
         [](const std::string &v) {
             eventBudget() = mcd::parseUint(v, "--event-budget");
         }},
        {"--cache", "MODE", "run cache: off, read, or readwrite",
         [](const std::string &v) {
             cacheModeFlag() = mcd::parseCacheMode(v);
         }},
        {"--cache-dir", "PATH",
         "run-cache directory (default MCDSIM_CACHE_DIR)",
         [](const std::string &v) { cacheDirFlag() = v; }},
    };
    return table;
}

/** Register a harness-specific flag (call before parseHarnessArgs). */
inline void
addHarnessOption(OptionDef def)
{
    optionTable().push_back(std::move(def));
}

/**
 * Drop every option (call before parseHarnessArgs). A harness that
 * runs no simulation accepts only --help: it must reject the flags it
 * cannot honour rather than ignore them.
 */
inline void
clearOptions()
{
    optionTable().clear();
}

/** Print the generated usage/help text for the current table. */
inline void
printHarnessHelp(std::FILE *out, const char *argv0)
{
    std::fprintf(out, "usage: %s", argv0);
    for (const auto &def : optionTable())
        std::fprintf(out, " [%s %s]", def.name, def.valueName);
    std::fprintf(out, " [--help]\n\noptions:\n");
    for (const auto &def : optionTable()) {
        const std::string head =
            std::string(def.name) + " " + def.valueName;
        std::fprintf(out, "  %-22s %s\n", head.c_str(), def.help);
    }
    std::fprintf(out, "  %-22s %s\n", "--help", "show this help");
}

/**
 * Harness command-line entry point: parses every option in
 * optionTable() (both `--flag value` and `--flag=value` forms) plus
 * `--help`. Call once at the top of main(). Unrecognised or malformed
 * arguments abort with a structured error so typos are not silently
 * ignored; an option's apply() throwing mcd::ConfigError is rendered
 * the same way.
 */
inline void
parseHarnessArgs(int argc, char **argv)
{
    programName() = argv[0];
    auto usage = [&](const char *bad) {
        std::fprintf(stderr, "%s: unrecognised argument '%s'\n", argv[0],
                     bad);
        printHarnessHelp(stderr, argv[0]);
        std::exit(2);
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            printHarnessHelp(stdout, argv[0]);
            std::exit(0);
        }
        const OptionDef *match = nullptr;
        std::string value;
        for (const auto &def : optionTable()) {
            const std::size_t len = std::strlen(def.name);
            if (std::strncmp(arg, def.name, len) != 0)
                continue;
            if (arg[len] == '=') {
                match = &def;
                value = arg + len + 1;
                break;
            }
            if (arg[len] == '\0') {
                if (i + 1 >= argc)
                    usage(arg);
                match = &def;
                value = argv[++i];
                break;
            }
        }
        if (!match)
            usage(arg);
        try {
            match->apply(value);
        } catch (const mcd::ConfigError &e) {
            argError(argv[0], e.site().c_str(), e.context());
        }
    }
}

/**
 * The run cache the command line asked for: resolves --cache /
 * --cache-dir / MCDSIM_CACHE_DIR into an opened RunCache (disabled
 * unless --cache was given). A mode without a directory is a usage
 * error, reported in the uniform style.
 */
inline mcd::RunCache
openRunCache()
{
    try {
        return mcd::RunCache(
            mcd::resolveCacheConfig(cacheModeFlag(), cacheDirFlag()));
    } catch (const mcd::ConfigError &e) {
        argError(programName(), e.site().c_str(), e.context());
    }
}

/**
 * RunOptions for this harness's runs: @p defaultInsts instructions
 * (MCDSIM_INSTS overrides), plus everything the command line asked
 * for — stats and trace collection for --stats-out / --trace-out, the
 * --faults / MCDSIM_FAULTS plan (a malformed spec is a usage error)
 * and --event-budget.
 */
inline mcd::RunOptions
runOptions(std::uint64_t defaultInsts = 600000)
{
    mcd::RunOptions opts;
    opts.instructions = runLength(defaultInsts);
    opts.collectStats = !statsOutPath().empty();
    opts.trace.enabled = !traceOutPath().empty();
    if (!faultSpec().empty()) {
        try {
            opts.config.faults = mcd::FaultPlan::parseShared(faultSpec());
        } catch (const mcd::ConfigError &e) {
            argError(programName(), e.site().c_str(), e.context());
        }
    }
    opts.config.eventBudget = eventBudget();
    return opts;
}

/** One stderr line per run that did not complete; returns the exit
 *  code (0 when everything succeeded, 1 otherwise). */
inline int
reportFailures(const mcd::CampaignResult &result)
{
    if (result.failed == 0)
        return 0;
    std::fprintf(stderr, "mcdsim: %zu of %zu runs did not complete:\n",
                 result.failed, result.runs.size());
    for (const auto &run : result.runs) {
        if (run.outcome.ok())
            continue;
        std::fprintf(stderr, "  %s/%s: %s %s\n",
                     run.spec.benchmark.c_str(),
                     mcd::runLabel(run.spec).c_str(),
                     mcd::runStatusName(run.outcome.status),
                     run.outcome.error.c_str());
    }
    return 1;
}

/** Where a campaign's results came from, on stderr. */
inline void
printCampaignSummary(const mcd::CampaignResult &r)
{
    std::fprintf(stderr,
                 "campaign: %zu runs total, %zu in shard %u/%u "
                 "(%zu executed, %zu cached, %zu failed)\n",
                 r.total, r.runs.size(), r.shard.index, r.shard.count,
                 r.executed, r.cached, r.failed);
    const mcd::RunCache::Stats &cs = r.cacheStats;
    if (cs.hits || cs.misses || cs.stale || cs.stores ||
        cs.uncacheable || cs.errors) {
        std::fprintf(stderr,
                     "cache: %llu hits, %llu misses, %llu stale, "
                     "%llu stores, %llu uncacheable, %llu errors\n",
                     static_cast<unsigned long long>(cs.hits),
                     static_cast<unsigned long long>(cs.misses),
                     static_cast<unsigned long long>(cs.stale),
                     static_cast<unsigned long long>(cs.stores),
                     static_cast<unsigned long long>(cs.uncacheable),
                     static_cast<unsigned long long>(cs.errors));
    }
}

inline void
writeArtifact(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        std::fprintf(stderr, "mcdsim: cannot write '%s'\n",
                     path.c_str());
        std::exit(1);
    }
    if (!text.empty())
        std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

/**
 * Write the stats / trace artifacts the command line asked for, from
 * the runs of @p result that completed.
 *
 * Stats from every run land in one pair of files: text sections at
 * the --stats-out path, a JSON array of per-run objects at that path
 * + ".json". Chrome traces cannot be concatenated (one document per
 * timeline), so a single traced run writes exactly the --trace-out
 * path and N runs write path.0 .. path.N-1, in run order either way —
 * byte-identical at any --jobs count.
 */
inline void
emitObservability(const mcd::CampaignResult &result)
{
    std::vector<const mcd::SimResult *> done;
    for (const auto &run : result.runs) {
        if (run.outcome.ok())
            done.push_back(&run.outcome.result);
    }
    if (!statsOutPath().empty()) {
        std::string text, json = "[";
        for (std::size_t i = 0; i < done.size(); ++i) {
            const mcd::SimResult &r = *done[i];
            text += "# run " + std::to_string(i) + ": " + r.benchmark +
                    " / " + r.controller + "\n";
            text += r.statsText;
            if (i > 0)
                json += ",";
            json += "\n" + (r.statsJson.empty() ? std::string("{}")
                                                : r.statsJson);
        }
        json += "\n]\n";
        writeArtifact(statsOutPath(), text);
        writeArtifact(statsOutPath() + ".json", json);
    }
    if (!traceOutPath().empty()) {
        const auto traced = std::count_if(
            done.begin(), done.end(),
            [](const mcd::SimResult *r) { return !r->traceJson.empty(); });
        std::size_t idx = 0;
        for (const mcd::SimResult *r : done) {
            if (r->traceJson.empty())
                continue;
            const std::string path =
                traced == 1 ? traceOutPath()
                            : traceOutPath() + "." + std::to_string(idx);
            writeArtifact(path, r->traceJson);
            ++idx;
        }
    }
}

/**
 * The one launch path of every simulating harness: run @p specs
 * through Campaign, serving and storing results in the --cache /
 * --cache-dir run cache (with a summary on stderr when it is on), and
 * write the --stats-out / --trace-out artifacts of the runs that
 * completed. Runs come back in spec order, failures included; a
 * harness that prints a partial table ends with
 * `return reportFailures(result);`.
 */
inline mcd::CampaignResult
runCampaign(std::vector<mcd::RunSpec> specs)
{
    mcd::RunCache cache = openRunCache();
    mcd::CampaignResult result =
        mcd::Campaign(std::move(specs), cache.enabled() ? &cache : nullptr)
            .run();
    if (cache.enabled())
        printCampaignSummary(result);
    emitObservability(result);
    return result;
}

/**
 * runCampaign() for harnesses whose tables need every run: on any
 * failure prints the per-run summary and exits 1, otherwise returns
 * the results in spec order.
 */
inline std::vector<mcd::SimResult>
runAll(std::vector<mcd::RunSpec> specs)
{
    mcd::CampaignResult result = runCampaign(std::move(specs));
    if (reportFailures(result) != 0)
        std::exit(1);
    std::vector<mcd::SimResult> results;
    results.reserve(result.runs.size());
    for (auto &run : result.runs)
        results.push_back(std::move(run.outcome.result));
    return results;
}

/** All benchmark names, in suite order. */
inline std::vector<std::string>
allBenchmarks()
{
    std::vector<std::string> names;
    for (const auto &b : mcd::benchmarkList())
        names.push_back(b.name);
    return names;
}

/** Benchmarks designed to land in the fast-varying group. */
inline std::vector<std::string>
fastVaryingBenchmarks()
{
    std::vector<std::string> names;
    for (const auto &b : mcd::benchmarkList()) {
        if (b.expectedFastVarying)
            names.push_back(b.name);
    }
    return names;
}

/** Print a horizontal rule sized for the standard tables. */
inline void
rule(int width = 78)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

/** Print an experiment banner. */
inline void
banner(const char *id, const char *title)
{
    rule();
    std::printf("%s | %s\n", id, title);
    rule();
}

/** Percent formatting: +x.xx. */
inline double
pct(double frac)
{
    return frac * 100.0;
}

} // namespace mcdbench

#endif // MCDSIM_BENCH_BENCH_COMMON_HH
