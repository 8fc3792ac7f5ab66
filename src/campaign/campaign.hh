/**
 * @file
 * Resumable, shardable experiment campaigns over the run cache.
 *
 * A campaign is the declarative form of the paper's evaluation: the
 * cross product of benchmarks x schemes x seeds (plus the MCD and
 * synchronous baselines), expanded into canonical RunSpecs in a
 * deterministic order. Any other explicit RunSpec list runs the same
 * way (every harness in bench/ launches its runs through Campaign).
 * Execution then becomes bookkeeping:
 *
 *   1. expansion index i belongs to shard (index, count) iff
 *      i % count == index - 1 — a pure function of the spec, so N
 *      invocations with --shard 1/N .. N/N partition the campaign
 *      with no coordination;
 *   2. cache hits are served before any worker starts (and recorded
 *      as such), misses fan out through ParallelRunner's retry /
 *      fault-isolation machinery;
 *   3. first-attempt-clean results are stored back, so a re-run — or
 *      a crashed campaign restarted — skips everything already done.
 *
 * Each shard writes a manifest (digest + outcome per run);
 * mergeShards() re-expands the spec, checks the manifests tile the
 * expansion exactly, reloads results from the shared cache, and
 * yields the same CampaignResult a single 1/1 invocation produces —
 * byte-identical, which tools/cache/check_cache_correctness.py
 * enforces in CI.
 */

#ifndef MCDSIM_CAMPAIGN_CAMPAIGN_HH
#define MCDSIM_CAMPAIGN_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/run_cache.hh"
#include "core/run_spec.hh"
#include "exec/parallel_runner.hh"

namespace mcd
{

/** The declarative cross product one campaign sweeps. */
struct CampaignSpec
{
    std::vector<std::string> benchmarks;
    std::vector<ControllerKind> schemes;

    /** Workload seeds; empty means {options.seed}. */
    std::vector<std::uint64_t> seeds;

    /** The reference every scheme is normalized against. */
    bool includeMcdBaseline = true;

    /** Also run the conventional synchronous chip. */
    bool includeSyncBaseline = false;

    RunOptions options{};
};

/**
 * The campaign's RunSpecs in canonical order: seed-major, then
 * benchmark, then [mcd-baseline, sync-baseline, schemes...]. Throws
 * ConfigError when the spec expands to nothing.
 */
std::vector<RunSpec> expandCampaign(const CampaignSpec &spec);

/** One slice of a campaign: 1-based index out of count. */
struct Shard
{
    std::uint32_t index = 1;
    std::uint32_t count = 1;
};

/** Parse "i/N" with 1 <= i <= N; ConfigError at "--shard" otherwise. */
Shard parseShard(const std::string &text);

/** Membership: expansion index @p i runs in shard @p s. */
inline bool
shardContains(const Shard &s, std::size_t i)
{
    return i % s.count == s.index - 1;
}

/** One campaign run and where its result came from. */
struct CampaignRun
{
    std::size_t index = 0; ///< position in the full expansion
    RunSpec spec;
    std::string digest;
    RunOutcome outcome;
    bool fromCache = false;
};

/** What one campaign (or shard, or merge) produced. */
struct CampaignResult
{
    std::size_t total = 0; ///< full expansion size
    Shard shard{};
    std::vector<CampaignRun> runs; ///< in-shard, expansion order

    std::size_t executed = 0; ///< simulated this invocation
    std::size_t cached = 0;   ///< served from the run cache
    std::size_t failed = 0;   ///< !runSucceeded(outcome.status)

    RunCache::Stats cacheStats{};
};

/**
 * Runs shards of an explicit RunSpec list: the one engine behind
 * every simulating harness. A CampaignSpec is the declarative
 * shorthand for the paper's cross product; any other sweep (an
 * ablation's config variants, a single figure run) passes its specs
 * directly, each carrying its own RunOptions.
 */
class Campaign
{
  public:
    /** @p cache may be null: every run executes, nothing is stored. */
    explicit Campaign(const CampaignSpec &spec, RunCache *cache = nullptr);

    /** Run exactly @p specs, in this order. */
    explicit Campaign(std::vector<RunSpec> specs,
                      RunCache *cache = nullptr);

    /** The full expansion, canonical order. */
    const std::vector<RunSpec> &runs() const { return expansion; }

    /**
     * Run this shard: serve cache hits, execute misses on
     * ParallelRunner (configuredJobs() workers, full retry / fault /
     * deadline isolation, each run under its own spec's options),
     * store first-attempt-clean results back.
     */
    CampaignResult run(const Shard &shard = Shard{});

  private:
    RunCache *cache;
    std::vector<RunSpec> expansion;
};

/**
 * Write @p result's shard manifest: one line per run (expansion
 * index, digest, status, attempts, cache flag, error). Throws
 * ConfigError at "campaign-manifest" when the file cannot be written.
 */
void writeManifest(const CampaignResult &result, const std::string &path);

/**
 * Combine shard manifests back into one CampaignResult. Re-expands
 * @p spec, verifies every manifest row's digest against it, checks
 * the shards tile the expansion exactly once, and reloads every
 * successful run's result from @p cache. Throws ConfigError at
 * "campaign-merge" on any gap, overlap, digest mismatch, or missing
 * cache entry.
 */
CampaignResult mergeShards(const CampaignSpec &spec,
                           const std::vector<std::string> &manifestPaths,
                           RunCache &cache);

/**
 * The comparison table of a *complete* result (a 1/1 shard or a
 * merge): per seed and benchmark, every scheme (and the synchronous
 * baseline, when included) normalized against that benchmark's MCD
 * baseline. A failed scheme run fails only its own row; a failed
 * baseline fails every row of its (seed, benchmark) group, each
 * carrying the baseline's error. Multi-seed campaigns suffix scheme
 * labels with "#s<seed>". Requires
 * spec.includeMcdBaseline; throws ConfigError otherwise.
 */
std::vector<ComparisonRow> comparisonRows(const CampaignSpec &spec,
                                          const CampaignResult &result);

} // namespace mcd

#endif // MCDSIM_CAMPAIGN_CAMPAIGN_HH
