/**
 * @file
 * Run-cache store semantics: hit/miss/stale accounting, mode gating,
 * end-to-end verification of entries (digest + canonical text), and
 * the maintenance operations (usage/gc/removeAll).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "campaign/result_io.hh"
#include "campaign/run_cache.hh"
#include "common/digest.hh"
#include "common/error.hh"
#include "core/report.hh"
#include "core/run_spec.hh"
#include "exec/run.hh"

namespace fs = std::filesystem;

namespace mcd
{
namespace
{

class RunCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = fs::path(::testing::TempDir()) /
              ("mcdsim-cache-" +
               std::string(::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name()));
        fs::remove_all(dir);
    }

    void TearDown() override { fs::remove_all(dir); }

    RunCache
    make(CacheMode mode)
    {
        return RunCache(CacheConfig{dir.string(), mode});
    }

    static RunSpec
    quickSpec(std::uint64_t seed = 1)
    {
        RunOptions opts;
        opts.instructions = 20000;
        RunSpec s = schemeSpec("adpcm_enc", ControllerKind::Adaptive,
                               opts);
        s.seed = seed;
        return s;
    }

    fs::path dir;
};

TEST_F(RunCacheTest, ModeParsingAndNames)
{
    EXPECT_EQ(parseCacheMode("off"), CacheMode::Off);
    EXPECT_EQ(parseCacheMode("read"), CacheMode::Read);
    EXPECT_EQ(parseCacheMode("readwrite"), CacheMode::ReadWrite);
    EXPECT_THROW(parseCacheMode("rw"), ConfigError);
    EXPECT_STREQ(cacheModeName(CacheMode::ReadWrite), "readwrite");
}

TEST_F(RunCacheTest, StoreThenLookupIsByteExact)
{
    RunCache cache = make(CacheMode::ReadWrite);
    const RunSpec spec = quickSpec();
    const SimResult fresh = run(spec);

    EXPECT_FALSE(cache.lookup(spec).has_value());
    EXPECT_TRUE(cache.store(spec, fresh));

    const auto hit = cache.lookup(spec);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(serializeResult(*hit), serializeResult(fresh));
    EXPECT_EQ(resultCsvRow(*hit), resultCsvRow(fresh));

    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
}

// Byte pin of one entry file: the envelope framing, the canonical
// spec blob and the result blob. Entries written by an older build
// must keep hitting, so no byte of this file may move.
TEST_F(RunCacheTest, EntryFileBytesArePinned)
{
    RunCache cache = make(CacheMode::ReadWrite);
    const RunSpec spec = quickSpec();
    SimResult r;
    r.benchmark = "adpcm_enc";
    r.controller = "adaptive";
    r.instructions = 20000;
    r.energy = 1.5;
    r.statsText = "a\\b\nc\n";
    ASSERT_TRUE(cache.store(spec, r));

    std::ifstream in(cache.entryPath(spec), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const std::string entry = bytes.str();
    const std::string head = "mcdsim-cache-entry-v1\ndigest=" +
                             specDigest(spec) + "\nspec*4078\n";
    EXPECT_EQ(entry.substr(0, head.size()), head);
    EXPECT_EQ(entry.substr(entry.size() - 9), "end\n\nend\n");
    EXPECT_EQ(entry.size(), 9203u);
    EXPECT_EQ(sha256Hex(entry),
              "eaf3512a470e4384204e949534d2a5ea446c5bce78ae9318a4f83f69376c2657");

    const auto hit = cache.lookup(spec);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(serializeResult(*hit), serializeResult(r));
}

TEST_F(RunCacheTest, DistinctSpecsGetDistinctEntries)
{
    RunCache cache = make(CacheMode::ReadWrite);
    const RunSpec a = quickSpec(1);
    const RunSpec b = quickSpec(2);
    cache.store(a, run(a));
    EXPECT_FALSE(cache.lookup(b).has_value());
    cache.store(b, run(b));
    EXPECT_EQ(cache.usage().entries, 2u);
    EXPECT_NE(cache.entryPath(a), cache.entryPath(b));
}

TEST_F(RunCacheTest, OffAndReadModesNeverWrite)
{
    const RunSpec spec = quickSpec();
    const SimResult r = run(spec);

    RunCache off = make(CacheMode::Off);
    EXPECT_FALSE(off.enabled());
    EXPECT_FALSE(off.store(spec, r));
    EXPECT_FALSE(off.lookup(spec).has_value());
    EXPECT_EQ(off.stats().misses, 0u);

    RunCache rd = make(CacheMode::Read);
    EXPECT_TRUE(rd.enabled());
    EXPECT_FALSE(rd.writable());
    EXPECT_FALSE(rd.store(spec, r));
    EXPECT_FALSE(rd.lookup(spec).has_value());
    EXPECT_EQ(rd.stats().misses, 1u);
}

TEST_F(RunCacheTest, CorruptEntryDegradesToStaleMiss)
{
    RunCache cache = make(CacheMode::ReadWrite);
    const RunSpec spec = quickSpec();
    cache.store(spec, run(spec));

    // Truncate the entry behind the cache's back.
    const std::string path = cache.entryPath(spec);
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << "mcdsim-cache-entry-v1\ngarbage\n";
    }
    EXPECT_FALSE(cache.lookup(spec).has_value());
    EXPECT_EQ(cache.stats().stale, 1u);
}

TEST_F(RunCacheTest, UncacheableSpecIsNeverStored)
{
    RunCache cache = make(CacheMode::ReadWrite);
    RunSpec spec = quickSpec();
    spec.options.config.cancelCheck = [] { return false; };
    EXPECT_FALSE(cacheable(spec));
    EXPECT_FALSE(cache.lookup(spec).has_value());
    EXPECT_EQ(cache.stats().uncacheable, 1u);
    EXPECT_FALSE(cache.store(spec, SimResult{}));
    EXPECT_EQ(cache.usage().entries, 0u);
}

TEST_F(RunCacheTest, MaintenanceGcAndRemoveAll)
{
    RunCache cache = make(CacheMode::ReadWrite);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const RunSpec s = quickSpec(seed);
        cache.store(s, run(s));
    }
    EXPECT_EQ(cache.usage().entries, 3u);

    // A foreign schema tree is dropped outright by gc.
    fs::create_directories(dir / "v999" / "aa");
    {
        std::ofstream f(dir / "v999" / "aa" / "junk.run");
        f << "old\n";
    }
    // Shrink to one entry's worth of bytes: gc keeps the newest.
    const std::uint64_t oneEntry = cache.usage().bytes / 3;
    EXPECT_GT(cache.gc(oneEntry), 0u);
    EXPECT_LE(cache.usage().bytes, oneEntry);
    EXPECT_FALSE(fs::exists(dir / "v999"));

    EXPECT_GT(cache.removeAll(), 0u);
    EXPECT_EQ(cache.usage().entries, 0u);
}

TEST_F(RunCacheTest, ResolveConfigRequiresDirectoryWhenEnabled)
{
    ::unsetenv("MCDSIM_CACHE_DIR");
    EXPECT_THROW(resolveCacheConfig(CacheMode::Read, ""), ConfigError);
    const CacheConfig cfg =
        resolveCacheConfig(CacheMode::Off, "");
    EXPECT_EQ(cfg.mode, CacheMode::Off);
    const CacheConfig explicitDir =
        resolveCacheConfig(CacheMode::ReadWrite, dir.string());
    EXPECT_EQ(explicitDir.dir, dir.string());
}

} // namespace
} // namespace mcd
