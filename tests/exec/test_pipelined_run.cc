/**
 * @file
 * Pipelined stream generation (ctest -L pipeline): mcd::run feeding
 * McdProcessor through a PipelinedSource must give the same result
 * bytes as a processor built directly on the generator, stop and join
 * its producer on every exit path, raise a generator failure on the
 * simulating thread at the position the inline run raised it, and
 * pipeline only when the core budget has room.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "campaign/result_io.hh"
#include "common/check.hh"
#include "common/error.hh"
#include "core/mcd_processor.hh"
#include "exec/parallel_runner.hh"
#include "exec/pipelined_source.hh"
#include "exec/run.hh"
#include "workload/benchmarks.hh"

namespace mcd
{
namespace
{

bool
canPipeline()
{
    return std::thread::hardware_concurrency() >= 2;
}

/**
 * Threads of this process, or 0 where /proc is not available. A
 * sanitizer runtime may start a helper thread of its own with the
 * first thread the process creates, so one thread is created and
 * joined before the first count.
 */
std::size_t
liveThreads()
{
    static const bool warmed = [] {
        std::thread([] {}).join();
        return true;
    }();
    (void)warmed;
    namespace fs = std::filesystem;
    std::error_code ec;
    std::size_t n = 0;
    for (fs::directory_iterator it("/proc/self/task", ec), end;
         !ec && it != end; it.increment(ec))
        ++n;
    return ec ? 0 : n;
}

/** The run of @p spec on the generator itself, on this thread. */
std::string
inlineBytes(const RunSpec &spec)
{
    const SimConfig cfg = resolveConfig(spec);
    auto gen = makeBenchmark(spec.benchmark, spec.options.instructions,
                             cfg.seed);
    McdProcessor proc(cfg, *gen);
    SimResult r = proc.run(spec.options.instructions);
    r.controller = runLabel(spec);
    return serializeResult(r);
}

/** run(@p spec), checked to have pipelined where the host allows. */
std::string
pipelinedBytes(const RunSpec &spec)
{
    const std::uint64_t before = pipelinedRuns();
    const std::string bytes = serializeResult(run(spec));
    EXPECT_EQ(pipelinedRuns(), before + (canPipeline() ? 1 : 0))
        << spec.benchmark << "/" << runLabel(spec);
    EXPECT_EQ(reservedThreads(), 0u);
    return bytes;
}

RunOptions
shortRun(std::uint64_t insts = 3000)
{
    RunOptions o;
    o.instructions = insts;
    o.seed = 5;
    return o;
}

/** Counts the next() calls that delivered an instruction. */
class CountingSource : public WorkloadSource
{
  public:
    explicit CountingSource(WorkloadSource &s) : inner(s) {}
    bool next(TraceInst &out) override
    {
        const bool ok = inner.next(out);
        delivered += ok;
        return ok;
    }
    void reset() override { inner.reset(); }
    std::string name() const override { return inner.name(); }

    WorkloadSource &inner;
    std::uint64_t delivered = 0;
};

/** A generator whose contract check fails at instruction @p failAt. */
class FailingSource : public WorkloadSource
{
  public:
    FailingSource(std::uint64_t fail_at, std::uint64_t total)
        : gen(makeBenchmark("gcc", total, 3)), failAt(fail_at)
    {}
    bool next(TraceInst &out) override
    {
        MCDSIM_CHECK(emitted < failAt, "generator fault at %llu",
                     static_cast<unsigned long long>(emitted));
        ++emitted;
        return gen->next(out);
    }
    void reset() override {}
    std::string name() const override { return "failing"; }

  private:
    std::unique_ptr<WorkloadSource> gen;
    std::uint64_t failAt;
    std::uint64_t emitted = 0;
};

TEST(PipelinedRun, EveryProfileAndSchemeMatchesInline)
{
    const RunOptions opts = shortRun();
    for (const auto &b : benchmarkList()) {
        std::vector<RunSpec> specs = {mcdBaselineSpec(b.name, opts)};
        for (ControllerKind kind :
             {ControllerKind::Adaptive, ControllerKind::Pid,
              ControllerKind::AttackDecay})
            specs.push_back(schemeSpec(b.name, kind, opts));
        for (const RunSpec &spec : specs) {
            EXPECT_EQ(pipelinedBytes(spec), inlineBytes(spec))
                << spec.benchmark << "/" << runLabel(spec);
        }
    }
}

TEST(PipelinedRun, FiveDomainRunMatchesInline)
{
    RunOptions opts = shortRun(8000);
    opts.config.fiveDomainPartition = true;
    const RunSpec spec =
        schemeSpec("mpeg2_dec", ControllerKind::Adaptive, opts);
    EXPECT_EQ(pipelinedBytes(spec), inlineBytes(spec));
}

TEST(PipelinedRun, StatsAndTraceRunMatchesInline)
{
    RunOptions opts = shortRun(8000);
    opts.recordTraces = true;
    opts.collectStats = true;
    opts.trace.enabled = true;
    opts.trace.clockEdges = true;
    const RunSpec spec = schemeSpec("swim", ControllerKind::Adaptive, opts);
    EXPECT_EQ(pipelinedBytes(spec), inlineBytes(spec));
}

TEST(PipelinedRun, StreamMatchesGeneratorThroughEndAndReset)
{
    // Not a multiple of the block size, so the last block is partial.
    const std::uint64_t total = PipelinedSource::kBlockInsts * 9 + 37;
    auto ref = makeBenchmark("mpeg2_dec", total, 11);
    auto gen = makeBenchmark("mpeg2_dec", total, 11);
    PipelinedSource piped(*gen);
    EXPECT_EQ(piped.name(), ref->name());
    EXPECT_EQ(piped.totalInstructions(), total);
    for (int pass = 0; pass < 2; ++pass) {
        TraceInst a, b;
        std::uint64_t n = 0;
        while (ref->next(a)) {
            ASSERT_TRUE(piped.next(b)) << "pass " << pass << " at " << n;
            ASSERT_EQ(a.cls, b.cls);
            ASSERT_EQ(a.pc, b.pc);
            ASSERT_EQ(a.srcDist[0], b.srcDist[0]);
            ASSERT_EQ(a.srcDist[1], b.srcDist[1]);
            ASSERT_EQ(a.addr, b.addr);
            ASSERT_EQ(a.taken, b.taken);
            ASSERT_EQ(a.target, b.target);
            ++n;
        }
        EXPECT_EQ(n, total);
        EXPECT_FALSE(piped.next(b));
        EXPECT_FALSE(piped.next(b));
        ref->reset();
        piped.reset();
    }
}

TEST(PipelinedRun, RunStoppingBeforeStreamEndMatchesInline)
{
    // The stream holds 50k instructions; the run retires 4k, so the
    // producer is still ahead (or waiting for room) when it is stopped.
    const std::uint64_t total = 50000;
    const std::uint64_t retire = 4000;
    SimConfig cfg = resolveConfig(
        schemeSpec("gcc", ControllerKind::Adaptive, shortRun(total)));

    auto ref = makeBenchmark("gcc", total, cfg.seed);
    McdProcessor inline_proc(cfg, *ref);
    const std::string expected = serializeResult(inline_proc.run(retire));

    const std::size_t threads = liveThreads();
    auto gen = makeBenchmark("gcc", total, cfg.seed);
    std::string got;
    {
        PipelinedSource piped(*gen);
        McdProcessor proc(cfg, piped);
        got = serializeResult(proc.run(retire));
    }
    EXPECT_EQ(got, expected);
    EXPECT_EQ(liveThreads(), threads);
}

TEST(PipelinedRun, EventBudgetErrorJoinsProducer)
{
    RunOptions opts = shortRun(20000);
    opts.config.eventBudget = 5000;
    const RunSpec spec = schemeSpec("mcf", ControllerKind::Adaptive, opts);

    std::string inline_error;
    try {
        const SimConfig cfg = resolveConfig(spec);
        auto gen = makeBenchmark(spec.benchmark, opts.instructions, cfg.seed);
        McdProcessor proc(cfg, *gen);
        proc.run(opts.instructions);
    } catch (const SimError &e) {
        inline_error = e.what();
    }
    ASSERT_FALSE(inline_error.empty()) << "the budget did not trip";

    const std::size_t threads = liveThreads();
    const std::uint64_t before = pipelinedRuns();
    try {
        run(spec);
        FAIL() << "the budget did not trip";
    } catch (const SimError &e) {
        EXPECT_EQ(e.site(), "event-budget");
        EXPECT_EQ(std::string(e.what()), inline_error);
    }
    EXPECT_EQ(pipelinedRuns(), before + (canPipeline() ? 1 : 0));
    EXPECT_EQ(reservedThreads(), 0u);
    EXPECT_EQ(liveThreads(), threads);
}

TEST(PipelinedRun, GeneratorCheckFailureReachesCallerInPlace)
{
    const ScopedCheckThrower thrower;
    const std::uint64_t fail_at = PipelinedSource::kBlockInsts * 3 + 17;
    const SimConfig cfg = resolveConfig(
        schemeSpec("gcc", ControllerKind::Adaptive, shortRun(20000)));

    const auto failure = [&](WorkloadSource &src, std::uint64_t &seen) {
        CountingSource counting(src);
        std::string what;
        try {
            McdProcessor proc(cfg, counting);
            proc.run(20000);
        } catch (const CheckFailure &e) {
            what = e.what();
        }
        seen = counting.delivered;
        return what;
    };

    FailingSource inline_gen(fail_at, 20000);
    std::uint64_t inline_seen = 0;
    const std::string inline_what = failure(inline_gen, inline_seen);
    ASSERT_NE(inline_what.find("generator fault at"), std::string::npos)
        << inline_what;
    EXPECT_EQ(inline_seen, fail_at);

    const std::size_t threads = liveThreads();
    FailingSource piped_gen(fail_at, 20000);
    std::uint64_t piped_seen = 0;
    std::string piped_what;
    {
        PipelinedSource piped(piped_gen);
        piped_what = failure(piped, piped_seen);
    }
    EXPECT_EQ(piped_what, inline_what);
    EXPECT_EQ(piped_seen, inline_seen);
    EXPECT_EQ(liveThreads(), threads);
}

TEST(PipelinePolicy, LoneRunPipelines)
{
    if (!canPipeline())
        GTEST_SKIP() << "one hardware thread: no core for a producer";
    ASSERT_EQ(reservedThreads(), 0u);
    const std::uint64_t before = pipelinedRuns();
    run(schemeSpec("adpcm_enc", ControllerKind::Adaptive, shortRun(2000)));
    EXPECT_EQ(pipelinedRuns(), before + 1);
    EXPECT_EQ(reservedThreads(), 0u);
}

TEST(PipelinePolicy, OneJobPoolPipelines)
{
    if (!canPipeline())
        GTEST_SKIP() << "one hardware thread: no core for a producer";
    const auto opts = std::make_shared<const RunOptions>(shortRun(2000));
    std::vector<RunTask> tasks(3);
    for (RunTask &t : tasks) {
        t.benchmark = "adpcm_enc";
        t.opts = opts;
    }
    const std::uint64_t before = pipelinedRuns();
    for (const RunOutcome &o : ParallelRunner(1).runOutcomes(tasks))
        EXPECT_TRUE(o.ok()) << o.error;
    EXPECT_EQ(pipelinedRuns(), before + tasks.size());
    EXPECT_EQ(reservedThreads(), 0u);
}

TEST(PipelinePolicy, PoolAtFullWidthStaysInline)
{
    const std::size_t width =
        std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
    const auto opts = std::make_shared<const RunOptions>(shortRun(2000));
    std::vector<RunTask> tasks(width * 2);
    for (RunTask &t : tasks) {
        t.benchmark = "adpcm_enc";
        t.opts = opts;
    }
    const std::uint64_t before = pipelinedRuns();
    for (const RunOutcome &o : ParallelRunner(width).runOutcomes(tasks))
        EXPECT_TRUE(o.ok()) << o.error;
    EXPECT_EQ(pipelinedRuns(), before);
    EXPECT_EQ(reservedThreads(), 0u);
}

} // namespace
} // namespace mcd
