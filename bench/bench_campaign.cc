/**
 * @file
 * Campaign driver: the paper's full evaluation sweep (benchmarks x
 * schemes x seeds vs the MCD baseline) as one resumable, shardable,
 * cache-aware invocation.
 *
 *   bench_campaign                         # run everything, print CSV
 *   bench_campaign --cache=readwrite --cache-dir D
 *                                          # ...and reuse results
 *   bench_campaign --shard 2/3 --manifest m2.txt ...
 *                                          # one slice of the sweep
 *   bench_campaign --merge m1.txt,m2.txt,m3.txt ...
 *                                          # combine slices
 *
 * The comparison table is byte-identical however it was produced —
 * cold cache, warm cache, merged shards, or --cache=off
 * (tools/cache/check_cache_correctness.py holds the layer to that).
 */

#include <sstream>

#include "bench_common.hh"

using namespace mcd;

namespace
{

std::string &
reportPath()
{
    static std::string path;
    return path;
}

std::string &
manifestPath()
{
    static std::string path;
    return path;
}

std::string &
mergeList()
{
    static std::string list;
    return list;
}

std::vector<std::uint64_t> &
seedList()
{
    static std::vector<std::uint64_t> seeds;
    return seeds;
}

std::vector<ControllerKind> &
schemeList()
{
    static std::vector<ControllerKind> schemes;
    return schemes;
}

Shard &
shardFlag()
{
    static Shard shard;
    return shard;
}

std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        auto comma = text.find(',', start);
        if (comma == std::string::npos)
            comma = text.size();
        if (comma > start)
            out.push_back(text.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

void
registerCampaignOptions()
{
    mcdbench::addHarnessOption(
        {"--shard", "i/N", "run slice i of N (1-based)",
         [](const std::string &v) { shardFlag() = parseShard(v); }});
    mcdbench::addHarnessOption(
        {"--report", "PATH", "write the comparison CSV here (default "
                             "stdout)",
         [](const std::string &v) { reportPath() = v; }});
    mcdbench::addHarnessOption(
        {"--manifest", "PATH", "write this invocation's shard manifest",
         [](const std::string &v) { manifestPath() = v; }});
    mcdbench::addHarnessOption(
        {"--merge", "M1,M2,...", "merge shard manifests instead of "
                                 "running",
         [](const std::string &v) { mergeList() = v; }});
    mcdbench::addHarnessOption(
        {"--seeds", "S1,S2,...", "workload seeds to sweep (default 1)",
         [](const std::string &v) {
             for (const auto &s : splitCommas(v))
                 seedList().push_back(parseUint(s, "--seeds"));
         }});
    mcdbench::addHarnessOption(
        {"--schemes", "A,B,...", "schemes to sweep (default adaptive,"
                                 "pid,attack-decay)",
         [](const std::string &v) {
             for (const auto &s : splitCommas(v))
                 schemeList().push_back(
                     parseControllerKind(s, "--schemes"));
         }});
}

CampaignSpec
buildSpec()
{
    CampaignSpec spec;
    spec.benchmarks = mcdbench::allBenchmarks();
    spec.schemes = schemeList().empty()
                       ? std::vector<ControllerKind>{
                             ControllerKind::Adaptive,
                             ControllerKind::Pid,
                             ControllerKind::AttackDecay}
                       : schemeList();
    spec.seeds = seedList();
    spec.options = mcdbench::runOptions();
    return spec;
}

/** Emit the comparison table (file or stdout) and the obs artifacts. */
int
emitComplete(const CampaignSpec &spec, const CampaignResult &result)
{
    const std::vector<ComparisonRow> rows = comparisonRows(spec, result);
    std::ostringstream csv;
    writeComparisonCsv(csv, rows);
    if (reportPath().empty())
        std::fputs(csv.str().c_str(), stdout);
    else
        mcdbench::writeArtifact(reportPath(), csv.str());
    mcdbench::emitObservability(result);
    return mcdbench::reportFailures(result);
}

} // namespace

int
main(int argc, char **argv)
{
    registerCampaignOptions();
    mcdbench::parseHarnessArgs(argc, argv);

    try {
        const CampaignSpec spec = buildSpec();
        RunCache cache = mcdbench::openRunCache();

        CampaignResult result;
        if (!mergeList().empty()) {
            if (!cache.enabled())
                mcdbench::argError(argv[0], "--merge",
                                   "merging needs the shard cache "
                                   "(--cache=read or readwrite)");
            result = mergeShards(spec, splitCommas(mergeList()), cache);
        } else {
            Campaign campaign(spec,
                              cache.enabled() ? &cache : nullptr);
            result = campaign.run(shardFlag());
        }

        if (!manifestPath().empty())
            writeManifest(result, manifestPath());
        mcdbench::printCampaignSummary(result);

        // A complete result (1/1 shard or merge) emits the table; a
        // partial shard only reports its own failures.
        if (result.runs.size() == result.total)
            return emitComplete(spec, result);
        return mcdbench::reportFailures(result);
    } catch (const McdError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
    }
}
