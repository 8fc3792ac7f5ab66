/**
 * @file
 * Tests for RunSpec canonicalization and digesting: the text must be
 * deterministic across processes and host parallelism, every
 * semantically distinct field must move the digest, and host-bound
 * callables must mark a spec uncacheable.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/error.hh"
#include "core/run_spec.hh"
#include "exec/parallel_runner.hh"
#include "fault/fault_plan.hh"

namespace mcd
{
namespace
{

RunSpec
baseSpec()
{
    RunOptions opts;
    opts.instructions = 40000;
    return schemeSpec("gzip", ControllerKind::Adaptive, opts);
}

TEST(RunSpecCanonical, DeterministicAndVersioned)
{
    const RunSpec a = baseSpec();
    const RunSpec b = baseSpec();
    EXPECT_EQ(canonicalText(a), canonicalText(b));
    EXPECT_EQ(specDigest(a), specDigest(b));
    EXPECT_EQ(specDigest(a).size(), 64u);

    // The schema version leads the text and participates in the
    // digest: bumping it must orphan every existing cache entry.
    EXPECT_NE(canonicalText(a, kRunSpecSchemaVersion),
              canonicalText(a, kRunSpecSchemaVersion + 1));
}

TEST(RunSpecCanonical, DigestIgnoresHostParallelism)
{
    const RunSpec spec = baseSpec();
    setConfiguredJobs(1);
    const std::string serial = specDigest(spec);
    setConfiguredJobs(8);
    const std::string parallel = specDigest(spec);
    setConfiguredJobs(0);
    EXPECT_EQ(serial, parallel);
}

TEST(RunSpecCanonical, DigestIgnoresExecutionPolicy)
{
    // Retry budget and wall deadline change how a run is babysat,
    // never what it computes — same content address.
    RunSpec spec = baseSpec();
    const std::string before = specDigest(spec);
    spec.options.maxAttempts = 5;
    spec.options.wallDeadlineMs = 1234;
    EXPECT_EQ(before, specDigest(spec));
}

TEST(RunSpecCanonical, FaultSpecKeyOrderIsIrrelevant)
{
    RunSpec a = baseSpec();
    RunSpec b = baseSpec();
    a.options.config.faults =
        FaultPlan::parseShared("task-throw:bench=gzip,scheme=adaptive");
    b.options.config.faults =
        FaultPlan::parseShared("task-throw:scheme=adaptive,bench=gzip");
    EXPECT_EQ(specDigest(a), specDigest(b));
    EXPECT_NE(specDigest(a), specDigest(baseSpec()));
}

TEST(RunSpecCanonical, EverySemanticFieldMovesTheDigest)
{
    using Mutator = std::function<void(RunSpec &)>;
    const std::vector<Mutator> mutators = {
        [](RunSpec &s) { s.benchmark = "gcc"; },
        [](RunSpec &s) { s.kind = RunKind::McdBaseline; },
        [](RunSpec &s) { s.kind = RunKind::SyncBaseline; },
        [](RunSpec &s) { s.controller = ControllerKind::Pid; },
        [](RunSpec &s) { s.seed = 99; },
        [](RunSpec &s) { s.options.instructions = 50000; },
        [](RunSpec &s) { s.options.recordTraces = true; },
        [](RunSpec &s) { s.options.collectStats = true; },
        [](RunSpec &s) { s.options.trace.enabled = true; },
        [](RunSpec &s) { s.options.config.fetchWidth = 6; },
        [](RunSpec &s) { s.options.config.robSize += 8; },
        [](RunSpec &s) { s.options.config.samplingRate *= 2.0; },
        [](RunSpec &s) { s.options.config.qref[0] += 1.0; },
        [](RunSpec &s) { s.options.config.syncWindow += 1; },
        [](RunSpec &s) { s.options.config.jitterEnabled = false; },
        [](RunSpec &s) { s.options.config.eventBudget = 123456; },
        [](RunSpec &s) { s.options.config.traceStride = 7; },
        [](RunSpec &s) { s.options.config.vfRange.fMax *= 1.1; },
        [](RunSpec &s) {
            s.options.config.energy.vNominal += 0.05;
        },
        [](RunSpec &s) {
            s.options.config.faults = FaultPlan::parseShared(
                "task-throw:bench=gzip,scheme=adaptive");
        },
        [](RunSpec &s) { s.options.config.faultAttempt = 2; },
    };

    const std::string base = specDigest(baseSpec());
    std::vector<std::string> digests{base};
    for (const auto &mutate : mutators) {
        RunSpec spec = baseSpec();
        mutate(spec);
        digests.push_back(specDigest(spec));
    }
    // All pairwise distinct: every mutation is a different run.
    for (std::size_t i = 0; i < digests.size(); ++i)
        for (std::size_t j = i + 1; j < digests.size(); ++j)
            EXPECT_NE(digests[i], digests[j])
                << "mutators " << i << " and " << j
                << " produced the same digest";
}

TEST(RunSpecCanonical, BaselineControllerFieldCannotSplitKeys)
{
    // A baseline run resolves to ControllerKind::Fixed whatever the
    // spec's controller field says; leftover non-semantic state must
    // not produce distinct cache keys for the same simulation.
    RunOptions opts;
    opts.instructions = 40000;
    RunSpec a = mcdBaselineSpec("gzip", opts);
    RunSpec b = mcdBaselineSpec("gzip", opts);
    b.controller = ControllerKind::Adaptive;
    EXPECT_EQ(specDigest(a), specDigest(b));
}

TEST(RunSpecCacheable, HostBoundCallablesAreNotCacheable)
{
    RunSpec spec = baseSpec();
    EXPECT_TRUE(cacheable(spec));

    RunSpec custom = baseSpec();
    custom.options.config.customController =
        [](std::size_t, const VfCurve &) {
            return std::unique_ptr<DvfsController>();
        };
    EXPECT_FALSE(cacheable(custom));
    // The presence of the callable is still digested: the spec with a
    // custom controller is not the same run as the one without.
    EXPECT_NE(specDigest(custom), specDigest(spec));

    RunSpec cancel = baseSpec();
    cancel.options.config.cancelCheck = [] { return false; };
    EXPECT_FALSE(cacheable(cancel));
    EXPECT_NE(specDigest(cancel), specDigest(spec));
}

TEST(RunSpecLabels, KindNamesAndRunLabels)
{
    EXPECT_STREQ(runKindName(RunKind::Scheme), "scheme");
    EXPECT_STREQ(runKindName(RunKind::McdBaseline), "mcd-baseline");
    EXPECT_STREQ(runKindName(RunKind::SyncBaseline), "sync-baseline");

    RunOptions opts;
    EXPECT_EQ(runLabel(schemeSpec("gzip", ControllerKind::Adaptive,
                                  opts)),
              "adaptive");
    EXPECT_EQ(runLabel(mcdBaselineSpec("gzip", opts)), "mcd-baseline");
    EXPECT_EQ(runLabel(syncBaselineSpec("gzip", opts)),
              "sync-baseline");
}

TEST(RunSpecLabels, ControllerKindNamesRoundTrip)
{
    for (ControllerKind kind :
         {ControllerKind::Fixed, ControllerKind::Adaptive,
          ControllerKind::Pid, ControllerKind::AttackDecay})
        EXPECT_EQ(parseControllerKind(controllerKindName(kind), "--s"),
                  kind);
    EXPECT_EQ(parseControllerKind("pid", "--s"), ControllerKind::Pid);
    EXPECT_THROW(parseControllerKind("custom", "--s"), ConfigError);
    try {
        parseControllerKind("bogus", "--scheme");
        FAIL() << "an unknown scheme name must throw";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.site(), "--scheme");
    }
}

TEST(RunSpecResolve, KindImpliedOverrides)
{
    RunOptions opts;
    opts.recordTraces = true;
    opts.collectStats = true;

    RunSpec scheme = schemeSpec("gzip", ControllerKind::Adaptive, opts);
    scheme.seed = 7;
    const SimConfig sc = resolveConfig(scheme);
    EXPECT_EQ(sc.controller, ControllerKind::Adaptive);
    EXPECT_TRUE(sc.mcdEnabled);
    EXPECT_EQ(sc.seed, 7u);
    EXPECT_TRUE(sc.recordTraces);
    EXPECT_TRUE(sc.collectStats);

    const SimConfig mb = resolveConfig(mcdBaselineSpec("gzip", opts));
    EXPECT_EQ(mb.controller, ControllerKind::Fixed);
    EXPECT_TRUE(mb.mcdEnabled);

    const SimConfig sb = resolveConfig(syncBaselineSpec("gzip", opts));
    EXPECT_EQ(sb.controller, ControllerKind::Fixed);
    EXPECT_FALSE(sb.mcdEnabled);
    EXPECT_FALSE(sb.jitterEnabled);
}

} // namespace
} // namespace mcd
