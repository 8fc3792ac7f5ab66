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

#include "common/digest.hh"
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

/** The `key=` line of @p text, newline included ("" when absent). */
std::string
lineOf(const std::string &text, const std::string &key)
{
    const std::size_t at = text.find("\n" + key + "=");
    if (at == std::string::npos)
        return "";
    return text.substr(at + 1, text.find('\n', at + 1) - at);
}

// Byte pins of the canonical text: a digest moves iff a byte of the
// text moves, so these hold every cache key in the store fixed. A
// failure here means existing cache entries stop matching; that needs
// a kRunSpecSchemaVersion bump, never a re-pin.
TEST(RunSpecCanonical, BytesArePinned)
{
    const RunSpec adaptive =
        schemeSpec("gzip", ControllerKind::Adaptive, RunOptions{});
    const std::string text = canonicalText(adaptive);
    EXPECT_EQ(text.substr(0, text.find("cfg.")),
              "format=mcdsim-runspec\nschema=1\nbenchmark=gzip\n"
              "kind=scheme\ncontroller=adaptive\nseed=1\n"
              "instructions=2000000\n");
    EXPECT_EQ(lineOf(text, "cfg.vf.f_min"),
              "cfg.vf.f_min=f64:41adcd6500000000\n");
    EXPECT_EQ(lineOf(text, "cfg.faults"), "cfg.faults=-\n");
    EXPECT_EQ(sha256Hex(text), specDigest(adaptive));
    EXPECT_EQ(specDigest(adaptive),
              "f61a29dce0922ca6aa814c6e62d1371415575bbdc3b597024a25fb4ad33abb76");

    const RunSpec sync = syncBaselineSpec("mcf", RunOptions{});
    EXPECT_EQ(lineOf(canonicalText(sync), "kind"), "kind=sync-baseline\n");
    EXPECT_EQ(specDigest(sync),
              "a0b4f8f8501e893e2de0b937eac9f346e8818dafcdcd526e55f484674d3195ab");

    // Five domains, and text fields holding a backslash and a newline:
    // both are escaped, so every field stays on its own line.
    RunOptions opts;
    opts.config.fiveDomainPartition = true;
    opts.config.faults =
        FaultPlan::parseShared("task-throw:bench=a\\b\nc");
    opts.config.faultBenchmark = "x\\y\nz";
    const RunSpec five = schemeSpec("mcf", ControllerKind::Pid, opts);
    const std::string fiveText = canonicalText(five);
    EXPECT_EQ(lineOf(fiveText, "cfg.faults"),
              "cfg.faults=task-throw:bench=a\\\\b\\nc\n");
    EXPECT_EQ(lineOf(fiveText, "cfg.fault_benchmark"),
              "cfg.fault_benchmark=x\\\\y\\nz\n");
    EXPECT_EQ(lineOf(fiveText, "cfg.five_domain_partition"),
              "cfg.five_domain_partition=1\n");
    EXPECT_EQ(specDigest(five),
              "25883226f6c908f80498cc593512e48c2351ad9177c349b07cc81b4388cb3dd4");
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
