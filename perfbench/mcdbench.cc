/**
 * @file
 * The mcdsim benchmark driver (METHODOLOGY.md beside this file says
 * what each workload and metric is for).
 *
 *   mcdbench --workload kernel-ilp --seed 3 --seconds 10 --trace 0
 *
 * --trace 0 measures the end-to-end metrics with nothing but the
 * library on the clock. --trace 1 is a separate invocation with the
 * same seeds and sizes that times every layer from outside: a timing
 * WorkloadSource decorator, a timing DvfsController decorator built
 * through SimConfig::customController, an ExecProfile on the parallel
 * runner, per-call timing of the campaign layer's public functions,
 * and standalone loops over the kernel layers' public classes. It
 * keeps spans in memory and writes them to --out-dir at exit.
 *
 * Everything goes through the core/mcdsim.hh facade. Every workload
 * checks its simulated outputs (repetitions agree byte for byte,
 * campaign rows repeat, traced runs equal untraced ones);
 * any mismatch counts as failed and makes the exit status 1. The last
 * line of stdout is one JSON record:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * --smoke shrinks every size so each workload finishes in seconds.
 */

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/mcdsim.hh"

namespace
{

using namespace mcd;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- helpers

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The 10th percentile of @p v (nearest rank). */
double
lowDecile(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[(v.size() - 1) / 10];
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Keep @p v observable so the optimizer cannot drop the work. */
template <typename T>
void
keep(const T &v)
{
    asm volatile("" : : "g"(&v) : "memory");
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) >= 0x20)
            out.push_back(c);
    }
    return out + "\"";
}

/**
 * Value of stat @p key in a StatsRegistry JSON dump, or of its
 * sub-key @p sub for distributions; NaN when absent.
 */
double
statValue(const std::string &json, const std::string &key,
          const std::string &sub = "")
{
    const std::string needle = "\"" + key + "\": ";
    auto pos = json.find(needle);
    if (pos == std::string::npos)
        return std::nan("");
    pos += needle.size();
    if (!sub.empty()) {
        const auto close = json.find('}', pos);
        const std::string subNeedle = "\"" + sub + "\": ";
        pos = json.find(subNeedle, pos);
        if (pos == std::string::npos || pos > close)
            return std::nan("");
        pos += subNeedle.size();
    }
    return std::strtod(json.c_str() + pos, nullptr);
}

/**
 * Write back the dirty pages of the filesystem holding @p dir, so that
 * writeback left by earlier work does not land inside a measurement.
 */
void
flushFilesystem(const fs::path &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        ::syncfs(fd);
        ::close(fd);
    }
}

/** A directory that exists, empty, for the lifetime of the object. */
class ScratchDir
{
  public:
    explicit ScratchDir(fs::path p) : path(std::move(p))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    std::string str() const { return path.string(); }

    const fs::path path;
};

// ---------------------------------------------------------------- options

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::size_t jobs = 0;
    std::string outDir = ".bench_build/perfbench-run";
    std::string gitRev = "unknown";
    std::string srcDigest = "unknown";
};

/** Run sizes; --smoke swaps in tiny ones. */
struct Sizes
{
    std::uint64_t ilpInsts;   ///< per kernel-ilp run
    std::uint64_t memInsts;   ///< per kernel-membound run
    std::uint64_t coldInsts;  ///< per campaign-cold run
    double setupSampleS;      ///< host seconds of set-ups per setup_s sample
    int setupSamples;         ///< setup_s samples taken before each pass
    std::uint64_t probeOps;   ///< operations per standalone probe
    std::size_t minPasses;    ///< measured repetitions, at least
};

/**
 * Run lengths (METHODOLOGY.md, "Run lengths"): kernel-ilp at the 600 k
 * instructions the repository's harnesses run by default; mcf and the
 * campaign at the shortest lengths whose exact per-instruction counters
 * stay close to 600 k while the run budget still holds several passes.
 */
Sizes
sizesFor(bool smoke)
{
    if (smoke)
        return {3000, 3000, 2000, 0.0, 1, 20000, 2};
    return {600000, 400000, 300000, 0.002, 4, 2000000, 3};
}

const std::vector<std::string> kWorkloads = {"kernel-ilp", "kernel-membound",
                                             "campaign-cold"};

const std::vector<std::string> kIlpProfiles = {"gcc", "mpeg2_dec", "swim",
                                               "adpcm_enc"};
const std::vector<std::string> kMemProfiles = {"mcf"};

/** The record's metrics, in order: end-to-end (untraced) ... */
const std::vector<std::string> kEndToEnd = {
    "sim_minst_per_s",    "wall_s",
    "runs_per_s",         "setup_s",
    "peak_rss_mb",        "edp_rel_baseline_pct",
    "energy_rel_baseline_pct", "runtime_rel_baseline_pct"};

/** ... and per layer (traced). */
const std::vector<std::string> kPerLayer = {
    "workload.ns_per_inst",       "dvfs.ns_per_sample",
    "dvfs.samples_per_kinst",     "dvfs.transitions_per_minst",
    "arch.iq_select_ns",          "arch.bpred_ns",
    "mem.cache_access_ns",        "mem.l1d_miss_rate",
    "sim.events_per_inst",        "sim.ns_per_event",
    "sim.queue_ns_per_op",        "mcd.edges_per_inst.frontend",
    "mcd.edges_per_inst.int",     "mcd.edges_per_inst.fp",
    "mcd.edges_per_inst.ls",      "mcd.ns_per_bare_edge",
    "common.rng_gaussian_ns",     "power.clock_cycle_ns",
    "core.kernel_self_share",     "exec.utilization",
    "exec.wait_ms_mean",          "exec.task_ms_max",
    "campaign.lookup_us_per_hit", "campaign.deserialize_us",
    "campaign.spec_digest_us",    "campaign.hit_ratio",
    "campaign.serialize_us",      "campaign.store_ms_per_entry",
    "campaign.entry_kb",          "obs.stats_overhead_pct",
    "trace.overhead_pct"};

// ---------------------------------------------------------------- report

/** Metrics, run accounting and output checks of one invocation. */
class Report
{
  public:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };

    void
    put(const std::string &name, double value, const std::string &unit,
        bool exact = false)
    {
        metrics.push_back({name, value, unit});
        // Exact counters print every digit so commits can be diffed.
        std::printf(exact ? "metric %-30s %.17g %s  [exact]\n"
                          : "metric %-30s %.10g %s\n",
                    name.c_str(), value, unit.c_str());
        std::fflush(stdout);
    }

    /** A run (or served run) was attempted; @p ok says if it passed. */
    void
    attempt(bool ok, std::uint64_t n = 1)
    {
        attempted += n;
        if (!ok)
            failed += n;
    }

    /** An output check; a failure counts as one failed run. */
    void
    check(bool ok, const std::string &what)
    {
        if (ok)
            return;
        ++failed;
        std::printf("check FAILED: %s\n", what.c_str());
        std::fflush(stdout);
    }

    /** Print failed_frac and the final one-line JSON record. */
    int
    finish(const std::vector<std::string> &names)
    {
        std::string body;
        for (const auto &name : names) {
            const auto it =
                std::find_if(metrics.begin(), metrics.end(),
                             [&](const Metric &m) { return m.name == name; });
            if (it == metrics.end() || !std::isfinite(it->value)) {
                check(false, "metric " + name + " missing or not finite");
                continue;
            }
            if (!body.empty())
                body += ", ";
            body += jsonString(name) + ": {\"value\": " +
                    jsonNumber(it->value) +
                    ", \"unit\": " + jsonString(it->unit) + "}";
        }
        const std::uint64_t tried = std::max<std::uint64_t>(attempted, 1);
        std::printf("metric %-30s %.10g ratio  [failed/attempted]\n",
                    "failed_frac",
                    static_cast<double>(failed) / static_cast<double>(tried));
        const bool correct = failed == 0;
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": {%s}}\n",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(tried),
                    static_cast<unsigned long long>(failed), body.c_str());
        std::fflush(stdout);
        return correct ? 0 : 1;
    }

  private:
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

// ---------------------------------------------------------------- spans

/**
 * Spans (name, start, end, parent) kept in memory and written once at
 * exit. Per-call layer time inside a simulation run is aggregated
 * into the run's span as attributes, so memory stays bounded.
 */
class Spans
{
  public:
    int
    open(const std::string &name, const std::string &label = "")
    {
        const int parent = stack.empty() ? -1 : stack.back();
        spans.push_back({name, label, sinceOrigin(Clock::now()), -1.0,
                         parent, ""});
        stack.push_back(static_cast<int>(spans.size()) - 1);
        return stack.back();
    }

    void
    close(int idx, const std::string &attrs = "")
    {
        spans[static_cast<std::size_t>(idx)].endUs =
            sinceOrigin(Clock::now());
        spans[static_cast<std::size_t>(idx)].attrs = attrs;
        stack.pop_back();
    }

    /** A span measured elsewhere (e.g. on a worker thread). */
    void
    add(const std::string &name, const std::string &label,
        Clock::time_point start, Clock::time_point end)
    {
        const int parent = stack.empty() ? -1 : stack.back();
        spans.push_back({name, label, sinceOrigin(start), sinceOrigin(end),
                         parent, ""});
    }

    void
    write(const fs::path &path, const std::string &host) const
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"host\": " << host << ",\n \"spans\": [";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            out << (i ? ",\n  " : "\n  ") << "{\"id\": " << i
                << ", \"parent\": " << s.parent
                << ", \"name\": " << jsonString(s.name)
                << ", \"label\": " << jsonString(s.label)
                << ", \"start_us\": " << jsonNumber(s.startUs)
                << ", \"end_us\": " << jsonNumber(s.endUs)
                << ", \"attrs\": {" << s.attrs << "}}";
        }
        out << "\n]}\n";
    }

  private:
    struct Span
    {
        std::string name;
        std::string label;
        double startUs;
        double endUs;
        int parent;
        std::string attrs;
    };

    double
    sinceOrigin(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin)
            .count();
    }

    Clock::time_point origin = Clock::now();
    std::vector<Span> spans;
    std::vector<int> stack;
};

/** Opens a span for its scope; a null recorder records nothing. */
class SpanScope
{
  public:
    SpanScope(Spans *s, const std::string &name,
              const std::string &label = "")
        : rec(s), idx(s ? s->open(name, label) : -1)
    {}

    ~SpanScope()
    {
        if (rec)
            rec->close(idx, attrs);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::string attrs;

  private:
    Spans *rec;
    int idx;
};

// ---------------------------------------------------------------- context

struct Context
{
    Options opt;
    Sizes size;
    std::size_t jobs = 1;
    Report rep;
    std::unique_ptr<Spans> spans; ///< non-null only under --trace 1
};

std::string
hostJson(const Context &cx)
{
    return std::string("{\"nproc\": ") +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"jobs\": " + std::to_string(cx.jobs) +
           ", \"compiler\": " + jsonString(MCDBENCH_COMPILER) +
           ", \"build_type\": " + jsonString(MCDBENCH_BUILD_TYPE) +
           ", \"git_rev\": " + jsonString(cx.opt.gitRev) +
           ", \"src_digest\": " + jsonString(cx.opt.srcDigest) +
           ", \"run_spec_schema\": " +
           std::to_string(kRunSpecSchemaVersion) + "}";
}

/**
 * Peak resident memory of this program, MB. Read from VmHWM: getrusage
 * would also report the high-water mark of the parent that exec'd us.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return std::nan("");
}

std::string
resultDigest(const SimResult &r)
{
    return sha256Hex(serializeResult(r));
}

/**
 * Adaptive-vs-MCD-baseline comparisons, mean over profiles: the
 * paper's three metrics, and the same three as a share of the
 * baseline (100 - savings, 100 + degradation, 100 - improvement).
 * The record carries the shares: they are never near 0, so a seed
 * change moves them by a fraction of a percent, where it moves a
 * ~1% degradation by a quarter of itself.
 */
void
putSimulated(Context &cx, const std::vector<Comparison> &cmp)
{
    double edp = 0.0, energy = 0.0, perf = 0.0;
    for (const auto &c : cmp) {
        edp += c.edpImprovement;
        energy += c.energySavings;
        perf += c.perfDegradation;
    }
    const double n = static_cast<double>(std::max<std::size_t>(cmp.size(), 1));
    edp *= 100.0 / n;
    energy *= 100.0 / n;
    perf *= 100.0 / n;
    cx.rep.put("edp_improvement_pct", edp, "%", true);
    cx.rep.put("energy_savings_pct", energy, "%", true);
    cx.rep.put("perf_degradation_pct", perf, "%", true);
    cx.rep.put("edp_rel_baseline_pct", 100.0 - edp, "%", true);
    cx.rep.put("energy_rel_baseline_pct", 100.0 - energy, "%", true);
    cx.rep.put("runtime_rel_baseline_pct", 100.0 + perf, "%", true);
}

/** Put the four throughput metrics of a repeated unit of work. */
void
putThroughput(Context &cx, const std::vector<double> &passSeconds,
              double runsPerPass, double instsPerPass)
{
    const double wall = lowDecile(passSeconds);
    cx.rep.put("wall_s", wall, "s");
    cx.rep.put("runs_per_s", ratio(runsPerPass, wall), "1/s");
    cx.rep.put("sim_minst_per_s", ratio(instsPerPass, wall) / 1e6,
               "Minst/s");
    std::printf("info   %zu measured passes, min %.6g s, max %.6g s\n",
                passSeconds.size(),
                *std::min_element(passSeconds.begin(), passSeconds.end()),
                *std::max_element(passSeconds.begin(), passSeconds.end()));
}

/**
 * Loop @p pass until the measuring time is spent; pass times. Before
 * every pass, @p setUp is timed for the set-up samples (off the pass
 * clock), so those samples span the run like the passes do. Each
 * sample repeats @p setUp for milliseconds and keeps the mean, so the
 * clock's resolution and single interrupts do not show. setup_s is
 * the low decile of the samples, as wall_s is of the passes.
 */
std::vector<double>
measure(Context &cx, const std::function<void()> &setUp,
        const std::function<double()> &pass)
{
    std::vector<double> out;
    std::vector<double> setups;
    const auto start = Clock::now();
    while (out.size() < cx.size.minPasses ||
           secondsSince(start) < cx.opt.seconds) {
        for (int s = 0; s < cx.size.setupSamples; ++s) {
            int n = 0;
            const auto t0 = Clock::now();
            do {
                setUp();
                ++n;
            } while (secondsSince(t0) < cx.size.setupSampleS);
            setups.push_back(secondsSince(t0) / n);
        }
        out.push_back(pass());
    }
    cx.rep.put("setup_s", lowDecile(setups), "s");
    return out;
}

// ---------------------------------------------------------------- specs

RunOptions
runOptions(std::uint64_t insts, std::uint64_t seed)
{
    RunOptions o;
    o.instructions = insts;
    o.seed = seed;
    return o;
}

std::vector<RunSpec>
kernelSpecs(const std::vector<std::string> &profiles, std::uint64_t insts,
            std::uint64_t seed)
{
    std::vector<RunSpec> specs;
    for (const auto &p : profiles)
        specs.push_back(schemeSpec(p, ControllerKind::Adaptive,
                                   runOptions(insts, seed)));
    return specs;
}

/** The paper's evaluation: 17 profiles x {MCD baseline + 3 schemes}. */
CampaignSpec
evaluationSpec(std::uint64_t insts, std::vector<std::uint64_t> seeds,
               std::uint64_t optionSeed)
{
    CampaignSpec cs;
    for (const auto &b : benchmarkList())
        cs.benchmarks.push_back(b.name);
    cs.schemes = {ControllerKind::Adaptive, ControllerKind::Pid,
                  ControllerKind::AttackDecay};
    cs.includeMcdBaseline = true;
    cs.seeds = std::move(seeds);
    cs.options = runOptions(insts, optionSeed);
    return cs;
}

std::string
rowsBytes(const std::vector<ComparisonRow> &rows)
{
    std::string out;
    for (const auto &row : rows)
        out += comparisonCsvRow(row) + "\n";
    return out;
}

std::vector<Comparison>
adaptiveComparisons(const std::vector<ComparisonRow> &rows)
{
    std::vector<Comparison> out;
    for (const auto &row : rows) {
        if (runSucceeded(row.status) && row.scheme == "adaptive")
            out.push_back(row.vsBaseline);
    }
    return out;
}

// ---------------------------------------------------------------- decorators

/** Accumulated time and calls of one decorated layer. */
struct LayerClock
{
    double ns = 0.0;
    std::uint64_t calls = 0;
};

/** Times every next() of the wrapped trace source; observes only. */
class TimedSource : public WorkloadSource
{
  public:
    TimedSource(WorkloadSource &inner, LayerClock &clock)
        : src(inner), clk(clock)
    {}

    void attachFaults(FaultInjector *injector) override
    {
        src.attachFaults(injector);
    }

    bool
    next(TraceInst &out) override
    {
        const auto t0 = Clock::now();
        const bool ok = src.next(out);
        clk.ns += nsBetween(t0, Clock::now());
        ++clk.calls;
        return ok;
    }

    void reset() override { src.reset(); }
    std::uint64_t totalInstructions() const override
    {
        return src.totalInstructions();
    }
    std::string name() const override { return src.name(); }

  private:
    WorkloadSource &src;
    LayerClock &clk;
};

/** Times every sample() of the wrapped controller; observes only. */
class TimedController : public DvfsController
{
  public:
    TimedController(std::unique_ptr<DvfsController> inner, LayerClock &clock)
        : ctrl(std::move(inner)), clk(clock)
    {}

    DvfsDecision
    sample(double queue_occupancy, Hertz current_hz,
           bool in_transition) override
    {
        const auto t0 = Clock::now();
        const DvfsDecision d =
            ctrl->sample(queue_occupancy, current_hz, in_transition);
        clk.ns += nsBetween(t0, Clock::now());
        ++clk.calls;
        _stats = ctrl->stats();
        return d;
    }

    void
    reset() override
    {
        ctrl->reset();
        _stats = ctrl->stats();
    }

    std::string name() const override { return ctrl->name(); }

  private:
    std::unique_ptr<DvfsController> ctrl;
    LayerClock &clk;
};

/** The controller McdProcessor itself builds for @p kind on domain @p idx. */
std::unique_ptr<DvfsController>
realController(ControllerKind kind, const SimConfig &cfg, std::size_t idx,
               const VfCurve &vf)
{
    if (!cfg.controlDomain[idx])
        return std::make_unique<FixedController>();
    switch (kind) {
      case ControllerKind::Adaptive: {
        AdaptiveController::Config c = cfg.adaptive;
        c.qref = cfg.qref[idx];
        return std::make_unique<AdaptiveController>(vf, c);
      }
      case ControllerKind::Pid: {
        PidController::Config c = cfg.pid;
        c.qref = cfg.qref[idx];
        return std::make_unique<PidController>(vf, c);
      }
      case ControllerKind::AttackDecay: {
        AttackDecayController::Config c = cfg.attackDecay;
        const std::uint32_t caps[3] = {cfg.intQueueSize, cfg.fpQueueSize,
                                       cfg.lsQueueSize};
        c.queueCapacity = static_cast<double>(caps[idx]);
        return std::make_unique<AttackDecayController>(vf, c);
      }
      default:
        return std::make_unique<FixedController>();
    }
}

/** Layer times and exact counters summed over decorated runs. */
struct KernelLedger
{
    double wallNs = 0.0;     ///< decorated runs, construction included
    double untracedNs = 0.0; ///< the same runs, undecorated
    LayerClock source;
    LayerClock dvfs;
    double insts = 0.0;
    double events = 0.0;
    double samples = 0.0;
    double transitions = 0.0;
    std::array<double, 4> edges{}; ///< frontend, int, fp, ls
    double l1dMissRate = 0.0;      ///< summed; divided by runs
    double intOccupancy = 0.0;     ///< summed; divided by runs
    std::size_t runs = 0;
};

/**
 * Run @p spec undecorated, then decorated with stats on, and add both
 * to @p ledger. The decorated run must reproduce the undecorated one.
 */
SimResult
ledgerRun(Context &cx, const RunSpec &spec, KernelLedger &ledger)
{
    const std::string label = spec.benchmark + "/" + runLabel(spec);

    SimResult plain;
    {
        SpanScope span(cx.spans.get(), "core.run", label);
        const auto t0 = Clock::now();
        plain = run(spec);
        ledger.untracedNs += nsBetween(t0, Clock::now());
    }

    SpanScope span(cx.spans.get(), "core.run.decorated", label);
    LayerClock srcClk;
    LayerClock dvfsClk;
    SimConfig cfg = resolveConfig(spec);
    cfg.collectStats = true;
    if (spec.kind == RunKind::Scheme) {
        const ControllerKind kind = cfg.controller;
        const SimConfig base = cfg;
        LayerClock *clk = &dvfsClk;
        cfg.controller = ControllerKind::Custom;
        cfg.customController = [kind, base, clk](std::size_t idx,
                                                 const VfCurve &vf) {
            return std::make_unique<TimedController>(
                realController(kind, base, idx, vf), *clk);
        };
    }
    const auto t0 = Clock::now();
    auto gen = makeBenchmark(spec.benchmark, spec.options.instructions,
                             cfg.seed);
    TimedSource source(*gen, srcClk);
    McdProcessor proc(cfg, source);
    const SimResult r = proc.run(spec.options.instructions);
    const double wall = nsBetween(t0, Clock::now());

    cx.rep.check(r.wallTicks == plain.wallTicks && r.energy == plain.energy,
                 "decorated run of " + label +
                     " differs from the undecorated run");

    const std::string &js = r.statsJson;
    ledger.wallNs += wall;
    ledger.source.ns += srcClk.ns;
    ledger.source.calls += srcClk.calls;
    ledger.dvfs.ns += dvfsClk.ns;
    ledger.dvfs.calls += dvfsClk.calls;
    ledger.insts += static_cast<double>(r.instructions);
    ledger.events += statValue(js, "sim.eq.processed");
    const char *doms[4] = {"frontend", "int", "fp", "ls"};
    for (std::size_t d = 0; d < 4; ++d)
        ledger.edges[d] += statValue(js, std::string(doms[d]) + ".clock.cycles");
    for (std::size_t d = 1; d < 4; ++d) {
        ledger.samples +=
            statValue(js, std::string(doms[d]) + ".controller.samples");
        ledger.transitions +=
            statValue(js, std::string(doms[d]) + ".dvfs.transitions");
    }
    ledger.l1dMissRate += r.l1dMissRate;
    ledger.intOccupancy +=
        statValue(js, "int.queue.sampled_occupancy", "mean");
    ++ledger.runs;
    span.attrs = "\"workload_ns\": " + jsonNumber(srcClk.ns) +
                 ", \"dvfs_ns\": " + jsonNumber(dvfsClk.ns) +
                 ", \"insts\": " + std::to_string(r.instructions);
    return plain;
}

void
putLedger(Context &cx, const KernelLedger &l)
{
    const double self = l.wallNs - l.source.ns - l.dvfs.ns;
    const double runs = static_cast<double>(std::max<std::size_t>(l.runs, 1));
    cx.rep.put("workload.ns_per_inst",
               ratio(l.source.ns, static_cast<double>(l.source.calls)), "ns");
    cx.rep.put("dvfs.ns_per_sample",
               ratio(l.dvfs.ns, static_cast<double>(l.dvfs.calls)), "ns");
    cx.rep.put("dvfs.samples_per_kinst", 1e3 * ratio(l.samples, l.insts),
               "count", true);
    cx.rep.put("dvfs.transitions_per_minst",
               1e6 * ratio(l.transitions, l.insts), "count", true);
    cx.rep.put("mem.l1d_miss_rate", l.l1dMissRate / runs, "ratio", true);
    cx.rep.put("sim.events_per_inst", ratio(l.events, l.insts), "count",
               true);
    cx.rep.put("sim.ns_per_event", ratio(self, l.events), "ns");
    const char *doms[4] = {"frontend", "int", "fp", "ls"};
    for (std::size_t d = 0; d < 4; ++d)
        cx.rep.put(std::string("mcd.edges_per_inst.") + doms[d],
                   ratio(l.edges[d], l.insts), "count", true);
    cx.rep.put("core.kernel_self_share", ratio(self, l.wallNs), "ratio");
    cx.rep.put("trace.overhead_pct",
               100.0 * (ratio(l.wallNs, l.untracedNs) - 1.0), "%");
}

// ---------------------------------------------------------------- exec probe

/**
 * Fan @p specs out through ParallelRunner::runOutcomes with an
 * ExecProfile attached, which gives the queue waits and task times.
 * Each task's options carry a cancel poll that never cancels and only
 * stamps when the run's event loop first and last polled, which gives
 * the per-task spans.
 */
void
execProbe(Context &cx, const std::vector<RunSpec> &specs,
          const std::vector<SimResult> &refs)
{
    struct Stamp
    {
        Clock::time_point first{};
        Clock::time_point last{};
        bool seen = false;
    };
    std::vector<Stamp> stamps(specs.size());
    std::vector<RunTask> tasks;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto opts = std::make_shared<RunOptions>(specs[i].options);
        Stamp *st = &stamps[i];
        opts->config.cancelCheck = [st] {
            const auto now = Clock::now();
            if (!st->seen) {
                st->first = now;
                st->seen = true;
            }
            st->last = now;
            return false;
        };
        RunTask t;
        t.benchmark = specs[i].benchmark;
        t.kind = specs[i].kind;
        t.controller = specs[i].controller;
        t.seed = specs[i].seed;
        t.opts = std::move(opts);
        tasks.push_back(std::move(t));
    }

    const std::size_t jobs = std::min(cx.jobs, specs.size());
    ParallelRunner runner(jobs);
    ExecProfile prof;
    runner.setProfile(&prof);
    SpanScope span(cx.spans.get(), "exec.fanout");
    const auto t0 = Clock::now();
    const std::vector<RunOutcome> outcomes = runner.runOutcomes(tasks);
    const auto t1 = Clock::now();

    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        cx.rep.check(outcomes[i].ok() &&
                         outcomes[i].result.wallTicks == refs[i].wallTicks &&
                         outcomes[i].result.energy == refs[i].energy,
                     "exec fan-out of " + specs[i].benchmark +
                         " differs from the serial run");
        if (stamps[i].seen && cx.spans)
            cx.spans->add("exec.task",
                          specs[i].benchmark + "/" + runLabel(specs[i]),
                          stamps[i].first, stamps[i].last);
    }
    const double makespanMs = nsBetween(t0, t1) / 1e6;
    const SummaryStats exec = prof.execSummary();
    cx.rep.put("exec.utilization",
               ratio(exec.sum(), static_cast<double>(jobs) * makespanMs),
               "ratio");
    // The profile keeps only summaries of the pool's queue waits, so
    // the mean is the figure it can give; the serial path records 0.
    cx.rep.put("exec.wait_ms_mean", prof.waitSummary().mean(), "ms");
    cx.rep.put("exec.task_ms_max", exec.max(), "ms");
    span.attrs = "\"jobs\": " + std::to_string(jobs) +
                 ", \"makespan_ms\": " + jsonNumber(makespanMs);
}

// ---------------------------------------------------------------- cache probe

/**
 * Time the campaign layer's public functions per call over
 * (@p specs, @p results), in a scratch store. Returns the probe's
 * lookup hit ratio.
 */
double
cacheProbe(Context &cx, const std::vector<RunSpec> &specs,
           const std::vector<SimResult> &results)
{
    SpanScope span(cx.spans.get(), "campaign.calls");
    ScratchDir dir(fs::path(cx.opt.outDir) / "probe-cache");
    RunCache cache(CacheConfig{dir.str(), CacheMode::ReadWrite});
    const std::size_t reps =
        std::max<std::size_t>(3, 600 / std::max<std::size_t>(specs.size(), 1));

    LayerClock digest, ser, deser, store, lookup;
    double entryBytes = 0.0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            auto t0 = Clock::now();
            const std::string dg = specDigest(specs[i]);
            auto t1 = Clock::now();
            keep(dg);
            digest.ns += nsBetween(t0, t1);
            ++digest.calls;

            t0 = Clock::now();
            const std::string text = serializeResult(results[i]);
            t1 = Clock::now();
            ser.ns += nsBetween(t0, t1);
            ++ser.calls;

            t0 = Clock::now();
            const SimResult back = deserializeResult(text);
            t1 = Clock::now();
            deser.ns += nsBetween(t0, t1);
            ++deser.calls;

            t0 = Clock::now();
            const bool stored = cache.store(specs[i], results[i]);
            t1 = Clock::now();
            store.ns += nsBetween(t0, t1);
            ++store.calls;

            t0 = Clock::now();
            const auto hit = cache.lookup(specs[i]);
            t1 = Clock::now();
            lookup.ns += nsBetween(t0, t1);
            ++lookup.calls;

            if (rep == 0) {
                cx.rep.check(serializeResult(back) == text,
                             "result round trip of " + specs[i].benchmark);
                cx.rep.check(stored && hit && serializeResult(*hit) == text,
                             "cache round trip of " + specs[i].benchmark);
                entryBytes += static_cast<double>(
                    fs::file_size(cache.entryPath(specs[i])));
            }
        }
    }
    const RunCache::Stats st = cache.stats();
    cx.rep.check(st.hits == lookup.calls, "probe lookups all hit");
    cx.rep.put("campaign.lookup_us_per_hit",
               ratio(lookup.ns, static_cast<double>(st.hits)) / 1e3, "us");
    cx.rep.put("campaign.deserialize_us",
               ratio(deser.ns, static_cast<double>(deser.calls)) / 1e3, "us");
    cx.rep.put("campaign.spec_digest_us",
               ratio(digest.ns, static_cast<double>(digest.calls)) / 1e3, "us");
    cx.rep.put("campaign.serialize_us",
               ratio(ser.ns, static_cast<double>(ser.calls)) / 1e3, "us");
    cx.rep.put("campaign.store_ms_per_entry",
               ratio(store.ns, static_cast<double>(store.calls)) / 1e6, "ms");
    cx.rep.put("campaign.entry_kb",
               ratio(entryBytes, static_cast<double>(specs.size())) / 1024.0,
               "KiB", true);
    return ratio(static_cast<double>(st.hits),
                 static_cast<double>(st.hits + st.misses + st.stale));
}

// ---------------------------------------------------------------- obs probe

/** Wall time of @p spec with collectStats and tracing on vs off. */
void
obsProbe(Context &cx, const RunSpec &spec)
{
    SpanScope span(cx.spans.get(), "obs.overhead", spec.benchmark);
    RunSpec observed = spec;
    observed.options.collectStats = true;
    observed.options.trace.enabled = true;
    std::vector<double> off, on;
    for (int rep = 0; rep < 3; ++rep) {
        auto t0 = Clock::now();
        const SimResult a = run(spec);
        off.push_back(secondsSince(t0));
        t0 = Clock::now();
        const SimResult b = run(observed);
        on.push_back(secondsSince(t0));
        cx.rep.check(a.wallTicks == b.wallTicks && a.energy == b.energy,
                     "stats/trace on changed the simulated result of " +
                         spec.benchmark);
    }
    cx.rep.put("obs.stats_overhead_pct",
               100.0 * (ratio(median(on), median(off)) - 1.0), "%");
}

// ---------------------------------------------------------------- layer probes

/** Median ns per op over five timed repetitions of @p body(ops). */
double
nsPerOp(std::uint64_t ops, const std::function<void(std::uint64_t)> &body)
{
    body(ops / 4); // warm caches and branch predictors
    std::vector<double> reps;
    for (int r = 0; r < 5; ++r) {
        const auto t0 = Clock::now();
        body(ops);
        reps.push_back(nsBetween(t0, Clock::now()) /
                       static_cast<double>(ops));
    }
    return median(reps);
}

/** An event that reschedules itself every @p period ticks. */
class PeriodicEvent : public Event
{
  public:
    PeriodicEvent(EventQueue &queue, Tick period)
        : eq(queue), every(period)
    {}

    void process() override { eq.schedule(this, eq.now() + every); }

  private:
    EventQueue &eq;
    Tick every;
};

/**
 * Standalone loops over the kernel layers' public classes.
 * @p occupancy is the issue-queue fill the select probe holds.
 */
void
layerProbes(Context &cx, std::size_t occupancy)
{
    const std::uint64_t ops = cx.size.probeOps;
    const std::uint64_t seed = cx.opt.seed;

    {
        SpanScope span(cx.spans.get(), "probe.common.rng");
        Rng rng(seed);
        cx.rep.put("common.rng_gaussian_ns", nsPerOp(ops, [&](std::uint64_t n) {
            double acc = 0.0;
            for (std::uint64_t i = 0; i < n; ++i)
                acc += rng.gaussian();
            keep(acc);
        }), "ns");
    }
    {
        SpanScope span(cx.spans.get(), "probe.power.clock");
        EnergyModel em;
        cx.rep.put("power.clock_cycle_ns", nsPerOp(ops, [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i)
                em.addClockCycle(static_cast<DomainId>(i & 3),
                                 1.0 + 0.01 * static_cast<double>(i & 7),
                                 (i & 4) != 0);
            keep(em);
        }), "ns");
    }
    {
        SpanScope span(cx.spans.get(), "probe.mem.cache");
        Cache l1d(MemorySystem::Config{}.l1d);
        Rng rng(seed);
        std::vector<Addr> addrs(1 << 16);
        for (auto &a : addrs)
            a = rng.chance(0.9) ? rng.below(48 * 1024)
                                : rng.below(8 * 1024 * 1024);
        cx.rep.put("mem.cache_access_ns", nsPerOp(ops, [&](std::uint64_t n) {
            std::uint64_t hits = 0;
            for (std::uint64_t i = 0; i < n; ++i)
                hits += l1d.access(addrs[i & (addrs.size() - 1)]);
            keep(hits);
        }), "ns");
    }
    {
        SpanScope span(cx.spans.get(), "probe.arch.bpred");
        BranchPredictor bp;
        Rng rng(seed);
        struct Br
        {
            Addr pc;
            bool taken;
        };
        std::vector<Br> brs(1 << 16);
        for (auto &b : brs) {
            b.pc = 0x4000 + 4 * rng.below(2048);
            b.taken = rng.chance((b.pc >> 2) % 3 ? 0.9 : 0.3);
        }
        cx.rep.put("arch.bpred_ns", nsPerOp(ops, [&](std::uint64_t n) {
            std::uint64_t taken = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                const Br &b = brs[i & (brs.size() - 1)];
                taken += bp.predict(b.pc).taken;
                bp.update(b.pc, b.taken, b.pc + 64);
            }
            keep(taken);
        }), "ns");
    }
    {
        SpanScope span(cx.spans.get(), "probe.arch.iq");
        const std::uint32_t cap = SimConfig{}.intQueueSize;
        const std::size_t fill =
            std::clamp<std::size_t>(occupancy, 1, cap - 1);
        IssueQueue iq("probe", cap);
        std::vector<DynInst> pool(cap + 1);
        for (std::size_t i = 0; i < pool.size(); ++i) {
            pool[i].seq = i + 1;
            pool[i].queueVisibleTime = 0;
        }
        std::size_t head = 0;
        std::size_t tail = 0;
        for (; tail < fill; ++tail)
            iq.insert(&pool[tail]);
        cx.rep.put("arch.iq_select_ns", nsPerOp(ops / 8, [&](std::uint64_t n) {
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                iq.insert(&pool[tail]);
                tail = (tail + 1) % pool.size();
                iq.forEachVisible(1, [&](DynInst *d) {
                    acc += d->seq;
                    return true;
                });
                iq.erase(&pool[head]);
                head = (head + 1) % pool.size();
            }
            keep(acc);
        }), "ns");
        std::printf("info   arch.iq_select_ns held %zu of %u entries\n", fill,
                    cap);
    }
    {
        SpanScope span(cx.spans.get(), "probe.sim.queue");
        EventQueue eq;
        std::vector<std::unique_ptr<PeriodicEvent>> evs;
        const Tick periods[6] = {1000000, 1100000, 1250000,
                                 1400000, 1600000, 4000000};
        for (Tick p : periods) {
            evs.push_back(std::make_unique<PeriodicEvent>(eq, p));
            eq.schedule(evs.back().get(), p);
        }
        cx.rep.put("sim.queue_ns_per_op", nsPerOp(ops, [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i)
                eq.step();
        }), "ns");
    }
    {
        SpanScope span(cx.spans.get(), "probe.mcd.edges");
        EventQueue eq;
        std::vector<std::unique_ptr<ClockDomain>> doms;
        const double ghz[4] = {1.0, 0.9, 0.8, 0.7};
        for (std::size_t d = 0; d < 4; ++d) {
            ClockDomain::Config c;
            c.id = static_cast<DomainId>(d);
            c.initialHz = gigaHertz(ghz[d]);
            c.jitterEnabled = true;
            c.jitterSeed = seed;
            doms.push_back(std::make_unique<ClockDomain>(eq, c));
            doms.back()->start([] {});
        }
        cx.rep.put("mcd.ns_per_bare_edge", nsPerOp(ops, [&](std::uint64_t n) {
            // n edges across four domains whose rates sum to 3.4 GHz.
            const Tick span_ticks = static_cast<Tick>(
                static_cast<double>(n) / 3.4e9 * 1e15);
            eq.runUntil(eq.now() + span_ticks);
        }), "ns");
    }
}

// ---------------------------------------------------------------- workloads

void
kernelWorkload(Context &cx, const std::vector<std::string> &profiles,
               std::uint64_t insts)
{
    const std::vector<RunSpec> specs =
        kernelSpecs(profiles, insts, cx.opt.seed);

    if (cx.opt.trace) {
        KernelLedger ledger;
        std::vector<SimResult> results;
        {
            SpanScope span(cx.spans.get(), "kernel.runs");
            for (const auto &s : specs)
                results.push_back(ledgerRun(cx, s, ledger));
        }
        for (const auto &r : results)
            cx.rep.attempt(r.instructions == insts);
        putLedger(cx, ledger);
        execProbe(cx, specs, results);
        // No campaign runs here: the hit ratio is the probe's own
        // store-then-lookup traffic.
        cx.rep.put("campaign.hit_ratio", cacheProbe(cx, specs, results),
                   "ratio", true);
        obsProbe(cx, specs.front());
        layerProbes(cx, static_cast<std::size_t>(std::lround(
                            ledger.intOccupancy /
                            static_cast<double>(ledger.runs))));
        return;
    }

    // Set-up: build every profile's trace source and processor model.
    const auto setUp = [&] {
        for (const auto &s : specs) {
            const SimConfig cfg = resolveConfig(s);
            auto gen = makeBenchmark(s.benchmark, insts, cfg.seed);
            McdProcessor proc(cfg, *gen);
            keep(proc);
        }
    };

    std::vector<std::string> digests(specs.size());
    std::vector<SimResult> first(specs.size());
    double events = 0.0;
    const auto passes = measure(cx, setUp, [&] {
        double pass = 0.0;
        const bool firstPass = digests.front().empty();
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const auto t0 = Clock::now();
            SimResult r = run(specs[i]);
            pass += secondsSince(t0);
            const std::string dg = resultDigest(r);
            if (firstPass) {
                digests[i] = dg;
                events += static_cast<double>(r.eventsProcessed);
                cx.rep.attempt(r.instructions == insts);
                first[i] = std::move(r);
            } else {
                cx.rep.attempt(dg == digests[i]);
                if (dg != digests[i])
                    std::printf("check FAILED: %s repetition differs\n",
                                specs[i].benchmark.c_str());
            }
        }
        return pass;
    });
    const double n = static_cast<double>(specs.size());
    putThroughput(cx, passes, n, n * static_cast<double>(insts));
    cx.rep.put("peak_rss_mb", peakRssMb(), "MB");
    cx.rep.put("sim.events_per_inst", events / (n * static_cast<double>(insts)),
               "count", true);

    // The paper's metrics: adaptive against the full-speed MCD baseline.
    std::vector<Comparison> cmp;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const SimResult base = run(mcdBaselineSpec(
            specs[i].benchmark, runOptions(insts, cx.opt.seed)));
        cx.rep.attempt(base.instructions == insts);
        cmp.push_back(compare(first[i], base));
    }
    putSimulated(cx, cmp);
}

/** Results of a campaign in expansion order (successful runs only). */
std::vector<SimResult>
campaignResults(Context &cx, const CampaignResult &res)
{
    std::vector<SimResult> out;
    for (const auto &r : res.runs) {
        cx.rep.attempt(r.outcome.ok() &&
                       r.outcome.result.instructions ==
                           r.spec.options.instructions);
        out.push_back(r.outcome.result);
    }
    return out;
}

void
coldWorkload(Context &cx)
{
    const CampaignSpec cs =
        evaluationSpec(cx.size.coldInsts, {cx.opt.seed}, cx.opt.seed);

    auto coldPass = [&](const std::string &tag, CampaignResult &res,
                        std::string &rows) {
        ScratchDir dir(fs::path(cx.opt.outDir) / ("cold-" + tag));
        RunCache cache(CacheConfig{dir.str(), CacheMode::ReadWrite});
        const auto t0 = Clock::now();
        Campaign campaign(cs, &cache);
        res = campaign.run();
        const auto table = comparisonRows(cs, res);
        const double dt = secondsSince(t0);
        rows = rowsBytes(table);
        cx.rep.check(res.executed == res.total &&
                         res.cacheStats.stores == res.total,
                     "cold pass did not execute and store every run");
        return dt;
    };

    if (cx.opt.trace) {
        CampaignResult res;
        std::string rows;
        {
            SpanScope span(cx.spans.get(), "campaign.cold");
            coldPass("traced", res, rows);
        }
        const auto results = campaignResults(cx, res);
        const RunCache::Stats &st = res.cacheStats;
        cx.rep.put("campaign.hit_ratio",
                   ratio(static_cast<double>(st.hits),
                         static_cast<double>(st.hits + st.misses + st.stale)),
                   "ratio", true);
        std::vector<RunSpec> specs;
        for (const auto &r : res.runs)
            specs.push_back(r.spec);

        KernelLedger ledger;
        {
            SpanScope span(cx.spans.get(), "kernel.runs");
            for (std::size_t i = 0; i < specs.size(); ++i) {
                const SimResult plain = ledgerRun(cx, specs[i], ledger);
                cx.rep.check(resultDigest(plain) == resultDigest(results[i]),
                             "campaign result of " + specs[i].benchmark +
                                 "/" + runLabel(specs[i]) +
                                 " differs from a serial run");
            }
        }
        putLedger(cx, ledger);
        execProbe(cx, specs, results);
        cacheProbe(cx, specs, results);
        const auto mcf =
            std::find_if(specs.begin(), specs.end(), [](const RunSpec &s) {
                return s.kind == RunKind::Scheme && s.benchmark == "mcf";
            });
        obsProbe(cx, mcf != specs.end() ? *mcf : specs.front());
        layerProbes(cx, static_cast<std::size_t>(std::lround(
                            ledger.intOccupancy /
                            static_cast<double>(ledger.runs))));
        return;
    }

    // Set-up: profile construction and expansion.
    const auto setUp = [&] {
        for (const auto &b : cs.benchmarks)
            keep(makeBenchmark(b, cs.options.instructions, cx.opt.seed));
        Campaign campaign(cs);
        keep(campaign.runs().size());
    };

    std::string refRows;
    std::vector<ComparisonRow> refTable;
    std::size_t pass = 0;
    double total = 0.0;
    const auto passes = measure(cx, setUp, [&] {
        CampaignResult res;
        std::string rows;
        const double dt = coldPass(std::to_string(pass++), res, rows);
        total = static_cast<double>(res.total);
        for (const auto &r : res.runs)
            cx.rep.attempt(r.outcome.ok());
        if (refRows.empty()) {
            refRows = rows;
            refTable = comparisonRows(cs, res);
        } else {
            cx.rep.check(rows == refRows,
                         "cold pass rows differ from the first pass");
        }
        return dt;
    });
    putThroughput(cx, passes, total,
                  total * static_cast<double>(cs.options.instructions));
    cx.rep.put("peak_rss_mb", peakRssMb(), "MB");
    putSimulated(cx, adaptiveComparisons(refTable));
}

// ---------------------------------------------------------------- main

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "mcdbench: %s\n"
                 "usage: mcdbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--jobs N] [--out-dir DIR] "
                 "[--git-rev R] [--src-digest D]\n"
                 "workloads: kernel-ilp kernel-membound campaign-cold\n",
                 msg.c_str());
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || v[0] == '-')
        usage("bad value '" + v + "' for " + flag);
    return n;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = parseCount(a, v);
        else if (a == "--seconds")
            o.seconds = static_cast<double>(parseCount(a, v));
        else if (a == "--trace")
            o.trace = parseCount(a, v) != 0;
        else if (a == "--jobs")
            o.jobs = parseCount(a, v);
        else if (a == "--out-dir")
            o.outDir = v;
        else if (a == "--git-rev")
            o.gitRev = v;
        else if (a == "--src-digest")
            o.srcDigest = v;
        else
            usage("unknown option " + a);
    }
    if (std::find(kWorkloads.begin(), kWorkloads.end(), o.workload) ==
        kWorkloads.end())
        usage("unknown workload '" + o.workload + "'");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Context cx;
    cx.opt = parseArgs(argc, argv);
    cx.size = sizesFor(cx.opt.smoke);
    const std::size_t cores =
        std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
    cx.jobs = cx.opt.jobs ? cx.opt.jobs : std::min<std::size_t>(cores, 4);
    setConfiguredJobs(cx.jobs);
    if (cx.opt.trace)
        cx.spans = std::make_unique<Spans>();

    const std::string host = hostJson(cx);
    std::printf("host %s\n", host.c_str());
    std::printf("workload %s seed %llu seconds %g trace %d%s\n",
                cx.opt.workload.c_str(),
                static_cast<unsigned long long>(cx.opt.seed), cx.opt.seconds,
                cx.opt.trace ? 1 : 0, cx.opt.smoke ? " smoke" : "");
    std::fflush(stdout);

    try {
        fs::create_directories(cx.opt.outDir);
        flushFilesystem(cx.opt.outDir);
        SpanScope root(cx.spans.get(), "bench", cx.opt.workload);
        if (cx.opt.workload == "kernel-ilp")
            kernelWorkload(cx, kIlpProfiles, cx.size.ilpInsts);
        else if (cx.opt.workload == "kernel-membound")
            kernelWorkload(cx, kMemProfiles, cx.size.memInsts);
        else
            coldWorkload(cx);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mcdbench: %s\n", e.what());
        return 2;
    }

    if (cx.spans) {
        const fs::path path = fs::path(cx.opt.outDir) /
                              ("spans-" + cx.opt.workload + "-s" +
                               std::to_string(cx.opt.seed) + ".json");
        cx.spans->write(path, host);
        std::printf("info   spans written to %s\n", path.c_str());
    }
    return cx.rep.finish(cx.opt.trace ? kPerLayer : kEndToEnd);
}
