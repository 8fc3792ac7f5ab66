#include "campaign/campaign.hh"

#include <algorithm>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "common/check.hh"
#include "common/error.hh"
#include "common/parse.hh"
#include "common/record.hh"

namespace mcd
{

namespace
{

constexpr const char *kManifestTag = "mcdsim-manifest-v1";

[[noreturn]] void
mergeFail(const std::string &context)
{
    throw ConfigError("campaign-merge", context);
}

RunStatus
statusFromName(const std::string &name)
{
    if (name == "ok")
        return RunStatus::Ok;
    if (name == "failed")
        return RunStatus::Failed;
    if (name == "timed_out")
        return RunStatus::TimedOut;
    mergeFail("unknown run status '" + name + "'");
}

/** One parsed manifest line (everything merge needs per run). */
struct ManifestRow
{
    std::size_t index = 0;
    std::string digest;
    RunStatus status = RunStatus::Ok;
    bool fromCache = false;
    std::string error;
};

struct Manifest
{
    std::size_t total = 0;
    Shard shard{};
    std::vector<ManifestRow> rows;
};

Manifest
readManifest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        mergeFail("cannot read manifest '" + path + "'");
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const std::string text = std::move(bytes).str();

    constexpr std::uint64_t kSizeMax =
        std::numeric_limits<std::size_t>::max();
    constexpr std::uint64_t kU32Max =
        std::numeric_limits<std::uint32_t>::max();

    RecordReader r(text, "campaign-merge", "manifest '" + path + "'");
    r.expectLine(kManifestTag);
    const std::uint64_t schema = r.u64("schema", kU32Max);
    if (schema != kRunSpecSchemaVersion)
        r.fail("schema " + std::to_string(schema) + " != current " +
               std::to_string(kRunSpecSchemaVersion));

    Manifest m;
    m.total = static_cast<std::size_t>(r.u64("total", kSizeMax));
    const std::string_view shard = r.value("shard");
    try {
        m.shard = parseShard(std::string(shard));
    } catch (const ConfigError &e) {
        r.fail(e.context());
    }
    const std::uint64_t runs = r.u64("runs", kSizeMax);

    for (std::uint64_t i = 0; i < runs; ++i) {
        // run=<idx> <digest> <status> <attempts> <fromCache>[ <error>]
        const auto tok = r.fields(r.value("run"), 6);
        if (tok.size() < 5)
            r.fail("run line " + std::to_string(i) +
                   " has fewer than 5 fields");
        ManifestRow row;
        row.index =
            static_cast<std::size_t>(r.parseU64(tok[0], "run", kSizeMax));
        row.digest = r.parseText(tok[1], "run");
        row.status = statusFromName(r.parseText(tok[2], "run"));
        // Every run is one attempt; the field stays until the next
        // kRunSpecSchemaVersion bump drops it.
        if (r.parseU64(tok[3], "run", kU32Max) != 1)
            r.fail("run line " + std::to_string(i) + " has attempts '" +
                   std::string(tok[3]) + "', expected 1");
        row.fromCache = r.parseU64(tok[4], "run", 1) != 0;
        if (tok.size() == 6)
            row.error = r.parseText(tok[5], "run");
        m.rows.push_back(std::move(row));
    }
    r.expectLine("end");
    r.expectEnd();
    return m;
}

} // namespace

std::vector<RunSpec>
expandCampaign(const CampaignSpec &spec)
{
    if (spec.benchmarks.empty())
        throw ConfigError("campaign", "no benchmarks to run");
    if (spec.schemes.empty() && !spec.includeMcdBaseline &&
        !spec.includeSyncBaseline)
        throw ConfigError("campaign",
                          "no schemes and no baselines: nothing to run");
    if (spec.includeMcdBaseline &&
        std::find(spec.schemes.begin(), spec.schemes.end(),
                  ControllerKind::Fixed) != spec.schemes.end())
        throw ConfigError("campaign",
                          "scheme 'fixed' is the MCD baseline the "
                          "campaign already runs");

    std::vector<std::uint64_t> seeds = spec.seeds;
    if (seeds.empty())
        seeds.push_back(spec.options.seed);

    std::vector<RunSpec> out;
    out.reserve(seeds.size() * spec.benchmarks.size() *
                (spec.schemes.size() + 2));
    for (std::uint64_t seed : seeds) {
        for (const auto &name : spec.benchmarks) {
            if (spec.includeMcdBaseline) {
                RunSpec s = mcdBaselineSpec(name, spec.options);
                s.seed = seed;
                out.push_back(std::move(s));
            }
            if (spec.includeSyncBaseline) {
                RunSpec s = syncBaselineSpec(name, spec.options);
                s.seed = seed;
                out.push_back(std::move(s));
            }
            for (ControllerKind kind : spec.schemes) {
                RunSpec s = schemeSpec(name, kind, spec.options);
                s.seed = seed;
                out.push_back(std::move(s));
            }
        }
    }
    return out;
}

Shard
parseShard(const std::string &text)
{
    const auto slash = text.find('/');
    if (slash == std::string::npos)
        throw ConfigError("--shard",
                          "expected i/N, got '" + text + "'");
    auto field = [](std::string_view v) {
        return static_cast<std::uint32_t>(parseUint(
            v, "--shard", std::numeric_limits<std::uint32_t>::max()));
    };
    Shard s;
    s.index = field(std::string_view(text).substr(0, slash));
    s.count = field(std::string_view(text).substr(slash + 1));
    if (s.count == 0 || s.index == 0 || s.index > s.count)
        throw ConfigError("--shard", "shard index out of range in '" +
                                         text + "' (need 1 <= i <= N)");
    return s;
}

Campaign::Campaign(const CampaignSpec &spec, RunCache *run_cache)
    : Campaign(expandCampaign(spec), run_cache)
{}

Campaign::Campaign(std::vector<RunSpec> specs, RunCache *run_cache)
    : cache(run_cache), expansion(std::move(specs))
{}

CampaignResult
Campaign::run(const Shard &shard)
{
    CampaignResult out;
    out.total = expansion.size();
    out.shard = shard;

    // Resolve cache hits up front, on this thread; only misses are
    // handed to the ParallelRunner.
    std::vector<std::size_t> missIndex;
    for (std::size_t i = 0; i < expansion.size(); ++i) {
        if (!shardContains(shard, i))
            continue;
        CampaignRun cr;
        cr.index = i;
        cr.spec = expansion[i];
        cr.digest = specDigest(cr.spec);
        if (cache) {
            if (auto hit = cache->lookup(cr.spec)) {
                cr.fromCache = true;
                cr.outcome.result = std::move(*hit);
                ++out.cached;
                out.runs.push_back(std::move(cr));
                continue;
            }
        }
        missIndex.push_back(out.runs.size());
        out.runs.push_back(std::move(cr));
    }

    if (!missIndex.empty()) {
        // Each task borrows its own run's options: an aliasing pointer
        // with no owner, valid while out.runs stays put (it does until
        // the fan-in below finishes).
        std::vector<RunTask> tasks;
        tasks.reserve(missIndex.size());
        for (std::size_t pos : missIndex) {
            const RunSpec &s = out.runs[pos].spec;
            RunTask t;
            t.benchmark = s.benchmark;
            t.kind = s.kind;
            t.controller = s.controller;
            t.seed = s.seed;
            t.opts = std::shared_ptr<const RunOptions>(
                std::shared_ptr<const RunOptions>(), &s.options);
            tasks.push_back(std::move(t));
        }

        std::vector<RunOutcome> outcomes =
            ParallelRunner().runOutcomes(tasks);
        MCDSIM_CHECK_EQ(outcomes.size(), missIndex.size(),
                        "campaign outcome fan-in mismatch");

        for (std::size_t k = 0; k < missIndex.size(); ++k) {
            CampaignRun &cr = out.runs[missIndex[k]];
            cr.outcome = std::move(outcomes[k]);
            ++out.executed;
            // Only completed runs are stored.
            if (cache && cr.outcome.ok())
                cache->store(cr.spec, cr.outcome.result);
        }
    }

    for (const CampaignRun &cr : out.runs)
        if (!runSucceeded(cr.outcome.status))
            ++out.failed;
    if (cache)
        out.cacheStats = cache->stats();
    return out;
}

void
writeManifest(const CampaignResult &result, const std::string &path)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw ConfigError("campaign-manifest",
                          "cannot write '" + path + "'");
    RecordWriter w;
    w.line(kManifestTag);
    w.u64("schema", kRunSpecSchemaVersion);
    w.u64("total", result.total);
    w.text("shard", std::to_string(result.shard.index) + "/" +
                        std::to_string(result.shard.count));
    w.u64("runs", result.runs.size());
    for (const CampaignRun &cr : result.runs) {
        w.begin("run");
        w.fieldU64(cr.index);
        w.fieldText(cr.digest);
        w.fieldText(runStatusName(cr.outcome.status));
        w.fieldU64(1); // attempts, until a schema bump drops the field
        w.fieldU64(cr.fromCache ? 1 : 0);
        if (!cr.outcome.error.empty())
            w.fieldText(cr.outcome.error);
        w.end();
    }
    w.line("end");
    out << w.take();
    if (!out.good())
        throw ConfigError("campaign-manifest",
                          "write failed for '" + path + "'");
}

CampaignResult
mergeShards(const CampaignSpec &spec,
            const std::vector<std::string> &manifestPaths,
            RunCache &cache)
{
    const std::vector<RunSpec> expansion = expandCampaign(spec);

    CampaignResult out;
    out.total = expansion.size();
    std::vector<bool> covered(expansion.size(), false);
    out.runs.resize(expansion.size());

    for (const std::string &path : manifestPaths) {
        const Manifest m = readManifest(path);
        if (m.total != expansion.size())
            mergeFail("manifest '" + path + "' describes " +
                      std::to_string(m.total) + " runs, campaign has " +
                      std::to_string(expansion.size()));
        for (const ManifestRow &row : m.rows) {
            if (row.index >= expansion.size())
                mergeFail("manifest '" + path + "': run index " +
                          std::to_string(row.index) + " out of range");
            if (covered[row.index])
                mergeFail("run " + std::to_string(row.index) +
                          " appears in more than one manifest");
            covered[row.index] = true;

            CampaignRun cr;
            cr.index = row.index;
            cr.spec = expansion[row.index];
            cr.digest = specDigest(cr.spec);
            if (cr.digest != row.digest)
                mergeFail("manifest '" + path + "': digest mismatch at "
                          "run " + std::to_string(row.index) +
                          " (manifest is from a different campaign or "
                          "schema)");
            cr.fromCache = row.fromCache;
            cr.outcome.status = row.status;
            cr.outcome.error = row.error;
            if (runSucceeded(row.status)) {
                auto hit = cache.lookup(cr.spec);
                if (!hit)
                    mergeFail("result for run " +
                              std::to_string(row.index) + " (digest " +
                              row.digest + ") is not in the cache; "
                              "re-run that shard with --cache=readwrite");
                cr.outcome.result = std::move(*hit);
            }
            out.runs[row.index] = std::move(cr);
        }
    }

    for (std::size_t i = 0; i < covered.size(); ++i)
        if (!covered[i])
            mergeFail("run " + std::to_string(i) +
                      " is missing from every manifest");

    for (const CampaignRun &cr : out.runs) {
        if (cr.fromCache)
            ++out.cached;
        else
            ++out.executed;
        if (!runSucceeded(cr.outcome.status))
            ++out.failed;
    }
    out.cacheStats = cache.stats();
    return out;
}

std::vector<ComparisonRow>
comparisonRows(const CampaignSpec &spec, const CampaignResult &result)
{
    if (!spec.includeMcdBaseline)
        throw ConfigError("campaign",
                          "comparison table needs the MCD baseline "
                          "(includeMcdBaseline)");
    if (result.runs.size() != result.total)
        throw ConfigError("campaign",
                          "comparison table needs a complete campaign "
                          "(a 1/1 shard or a merge)");

    std::vector<std::uint64_t> seeds = spec.seeds;
    if (seeds.empty())
        seeds.push_back(spec.options.seed);
    const bool multiSeed = seeds.size() > 1;

    // Graceful degradation: a failed scheme run fails its own row, a
    // failed baseline fails every row of that (seed, benchmark) group
    // with its error context.
    auto makeRow = [&](const std::string &name, std::string label,
                       const CampaignRun &run, const CampaignRun &base,
                       std::uint64_t seed) {
        ComparisonRow row;
        row.benchmark = name;
        row.scheme = multiSeed
                         ? label + "#s" + std::to_string(seed)
                         : std::move(label);
        row.status = run.outcome.status;
        row.error = run.outcome.error;
        row.result = run.outcome.result;
        if (run.outcome.ok() && base.outcome.ok()) {
            row.vsBaseline = compare(row.result, base.outcome.result);
        } else if (run.outcome.ok()) {
            row.status = base.outcome.status;
            row.error = "mcd-baseline: " + base.outcome.error;
        }
        return row;
    };

    std::vector<ComparisonRow> rows;
    std::size_t idx = 0;
    for (std::uint64_t seed : seeds) {
        for (const auto &name : spec.benchmarks) {
            const CampaignRun &base = result.runs[idx++];
            const CampaignRun *sync = nullptr;
            if (spec.includeSyncBaseline)
                sync = &result.runs[idx++];
            for (ControllerKind kind : spec.schemes) {
                const CampaignRun &run = result.runs[idx++];
                rows.push_back(makeRow(name, controllerKindName(kind),
                                       run, base, seed));
            }
            if (sync)
                rows.push_back(
                    makeRow(name, "sync-baseline", *sync, base, seed));
        }
    }
    return rows;
}

} // namespace mcd
