/**
 * @file
 * Determinism self-check: the event queue documents that a run is a
 * pure function of configuration and seed (src/sim/event_queue.hh);
 * this test enforces it by running the end-to-end simulation twice
 * with identical config/seed and byte-comparing the serialized
 * reports. Any hidden global state, wall-clock dependence, or
 * address-dependent iteration order shows up here as a diff.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/mcdsim.hh"

namespace mcd
{
namespace
{

/** Serialized report bytes for one result: JSON + CSV. */
std::string
serialize(const SimResult &r)
{
    std::ostringstream os;
    os << resultJson(r) << '\n' << resultCsvHeader() << '\n'
       << resultCsvRow(r) << '\n';
    return os.str();
}

/** Full serialized report for one end-to-end run. */
std::string
serializedRun(const std::string &benchmark, ControllerKind kind,
              std::uint64_t seed)
{
    RunOptions opts;
    opts.instructions = 120000;
    opts.seed = seed;
    opts.recordTraces = true;
    return serialize(run(schemeSpec(benchmark, kind, opts)));
}

TEST(Determinism, SameSeedSameBytes)
{
    const std::string a = serializedRun("gzip", ControllerKind::Adaptive, 1);
    const std::string b = serializedRun("gzip", ControllerKind::Adaptive, 1);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "two same-seed runs diverged; the simulation is "
                       "not a pure function of config and seed";
}

TEST(Determinism, SeedSweepEachSeedReproducible)
{
    // The sweep fans out through Campaign, one spec per (seed, rep)
    // — every seed is run twice and each pair must match bytewise.
    const std::vector<std::uint64_t> seeds = {1, 7, 42};
    RunOptions opts;
    opts.instructions = 120000;
    opts.recordTraces = true;

    std::vector<RunSpec> specs;
    specs.reserve(seeds.size() * 2);
    for (const auto seed : seeds) {
        for (int rep = 0; rep < 2; ++rep) {
            RunSpec s = schemeSpec("mpeg2_dec", ControllerKind::Adaptive,
                                   opts);
            s.seed = seed;
            specs.push_back(std::move(s));
        }
    }
    const CampaignResult result = Campaign(std::move(specs)).run();
    ASSERT_EQ(result.failed, 0u);
    std::vector<SimResult> results;
    for (const auto &r : result.runs)
        results.push_back(r.outcome.result);

    std::vector<std::string> reports;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        const std::string first = serialize(results[2 * i]);
        const std::string second = serialize(results[2 * i + 1]);
        EXPECT_EQ(first, second)
            << "seed " << seeds[i] << " not reproducible";
        reports.push_back(first);
    }
    // The seed must actually matter: otherwise this test would pass
    // trivially on a simulator that ignores its seed.
    EXPECT_NE(reports[0], reports[1]);
    EXPECT_NE(reports[0], reports[2]);
}

TEST(Determinism, ReproducibleAcrossControllerKinds)
{
    // The fixed-interval PID path exercises different code (interval
    // accumulation, deadzone) — it must be just as pure.
    const std::string a = serializedRun("swim", ControllerKind::Pid, 3);
    const std::string b = serializedRun("swim", ControllerKind::Pid, 3);
    EXPECT_EQ(a, b);
}

TEST(Determinism, InterleavedRunsDoNotPerturbEachOther)
{
    // A run sandwiched between two same-seed runs must not change the
    // outcome of the second; catches leaked static state.
    const std::string before =
        serializedRun("adpcm_enc", ControllerKind::Adaptive, 5);
    (void)serializedRun("gcc", ControllerKind::AttackDecay, 99);
    const std::string after =
        serializedRun("adpcm_enc", ControllerKind::Adaptive, 5);
    EXPECT_EQ(before, after);
}

} // namespace
} // namespace mcd
