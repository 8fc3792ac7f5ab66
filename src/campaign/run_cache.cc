#include "campaign/run_cache.hh"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "campaign/result_io.hh"
#include "common/digest.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/record.hh"

namespace fs = std::filesystem;

namespace mcd
{

namespace
{

/** Leading tag line of an entry file; versions the envelope. */
constexpr const char *kEntryTag = "mcdsim-cache-entry-v1";

std::string
schemaDirName()
{
    // Appended, not `"v" + std::to_string(...)`: GCC 12 at -O3 warns
    // -Wrestrict inside that operator+.
    std::string name = "v";
    name += std::to_string(kRunSpecSchemaVersion);
    return name;
}

/** Read a whole file; nullopt when unreadable or absent. */
std::optional<std::string>
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream ss;
    ss << in.rdbuf();
    if (!in.good() && !in.eof())
        return std::nullopt;
    return std::move(ss).str();
}

/** The entry file of the spec whose digest is @p digest. */
fs::path
entryFile(const std::string &dir, const std::string &digest)
{
    return fs::path(dir) / schemaDirName() / digest.substr(0, 2) /
           (digest + ".run");
}

/**
 * Entry envelope: tag line, digest line, then spec and result as
 * length-prefixed blobs.
 */
std::string
renderEnvelope(const std::string &digest, const std::string &spec,
               const std::string &result)
{
    RecordWriter w;
    w.line(kEntryTag);
    w.text("digest", digest);
    w.blob("spec", spec);
    w.blob("result", result);
    w.line("end");
    return w.take();
}

/**
 * The result blob of @p text when it is a well-formed envelope for
 * @p digest and @p spec; nullopt on any mismatch, which the caller
 * counts as a stale entry, never an error.
 */
std::optional<std::string_view>
envelopeResult(const std::string &text, const std::string &digest,
               const std::string &spec)
{
    try {
        RecordReader r(text, "cache-entry", "malformed cache entry");
        r.expectLine(kEntryTag);
        if (r.text("digest") != digest || r.blob("spec") != spec)
            return std::nullopt;
        const std::string_view result = r.blob("result");
        r.expectLine("end");
        r.expectEnd();
        return result;
    } catch (const ConfigError &) {
        return std::nullopt;
    }
}

/** One entry file on disk, for eviction ordering and accounting. */
struct EntryFile
{
    fs::path path;
    std::uint64_t bytes = 0;
    fs::file_time_type mtime{};
};

std::vector<EntryFile>
listEntries(const fs::path &root)
{
    std::vector<EntryFile> out;
    std::error_code ec;
    fs::recursive_directory_iterator it(root, ec);
    if (ec)
        return out;
    for (const auto &de : it) {
        if (!de.is_regular_file(ec) || ec)
            continue;
        if (de.path().extension() != ".run")
            continue;
        EntryFile e;
        e.path = de.path();
        e.bytes = de.file_size(ec);
        if (ec)
            continue;
        e.mtime = de.last_write_time(ec);
        if (ec)
            continue;
        out.push_back(std::move(e));
    }
    return out;
}

} // namespace

const char *
cacheModeName(CacheMode mode)
{
    switch (mode) {
      case CacheMode::Off: return "off";
      case CacheMode::Read: return "read";
      case CacheMode::ReadWrite: return "readwrite";
    }
    return "?";
}

CacheMode
parseCacheMode(const std::string &text)
{
    if (text == "off")
        return CacheMode::Off;
    if (text == "read")
        return CacheMode::Read;
    if (text == "readwrite")
        return CacheMode::ReadWrite;
    throw ConfigError("--cache", "unknown cache mode '" + text +
                                     "' (use off, read, or readwrite)");
}

CacheConfig
resolveCacheConfig(CacheMode mode, const std::string &explicitDir)
{
    CacheConfig cfg;
    cfg.mode = mode;
    if (!explicitDir.empty()) {
        cfg.dir = explicitDir;
    } else if (const char *env = std::getenv("MCDSIM_CACHE_DIR")) {
        cfg.dir = env;
    }
    if (mode != CacheMode::Off && cfg.dir.empty())
        throw ConfigError("--cache-dir",
                          "cache enabled but no directory: pass "
                          "--cache-dir or set MCDSIM_CACHE_DIR");
    return cfg;
}

RunCache::RunCache(CacheConfig config) : conf(std::move(config)) {}

bool
RunCache::enabled() const
{
    return conf.mode != CacheMode::Off && !conf.dir.empty();
}

bool
RunCache::writable() const
{
    return enabled() && conf.mode == CacheMode::ReadWrite;
}

std::string
RunCache::entryPath(const RunSpec &spec) const
{
    return entryFile(conf.dir, specDigest(spec)).string();
}

std::optional<SimResult>
RunCache::lookup(const RunSpec &spec)
{
    if (!enabled())
        return std::nullopt;
    if (!cacheable(spec)) {
        ++counters.uncacheable;
        return std::nullopt;
    }

    const std::string canonical = canonicalText(spec);
    const std::string digest = sha256Hex(canonical);
    const fs::path path = entryFile(conf.dir, digest);
    std::error_code ec;
    if (!fs::exists(path, ec) || ec) {
        ++counters.misses;
        return std::nullopt;
    }

    const auto text = slurp(path);
    if (!text) {
        warn("cache: unreadable entry %s", path.string().c_str());
        ++counters.errors;
        ++counters.misses;
        return std::nullopt;
    }

    // Verify the envelope end to end: digest and full canonical text
    // must both match before a byte of the result is trusted.
    const auto result = envelopeResult(*text, digest, canonical);
    if (!result) {
        ++counters.stale;
        return std::nullopt;
    }
    try {
        SimResult r = deserializeResult(*result);
        ++counters.hits;
        return r;
    } catch (const ConfigError &) {
        ++counters.stale;
        return std::nullopt;
    }
}

bool
RunCache::store(const RunSpec &spec, const SimResult &result)
{
    if (!writable() || !cacheable(spec))
        return false;

    const std::string canonical = canonicalText(spec);
    const std::string digest = sha256Hex(canonical);
    const fs::path path = entryFile(conf.dir, digest);
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);
    if (ec) {
        warn("cache: cannot create %s: %s",
             path.parent_path().string().c_str(),
             ec.message().c_str());
        ++counters.errors;
        return false;
    }

    // Temp + rename keeps a crash from leaving a truncated entry a
    // later lookup would have to reject as stale.
    const fs::path tmp = path.string() + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out << renderEnvelope(digest, canonical, serializeResult(result));
        if (!out.good()) {
            warn("cache: write failed for %s", tmp.string().c_str());
            ++counters.errors;
            fs::remove(tmp, ec);
            return false;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        warn("cache: rename failed for %s: %s", path.string().c_str(),
             ec.message().c_str());
        ++counters.errors;
        fs::remove(tmp, ec);
        return false;
    }
    ++counters.stores;
    return true;
}

RunCache::Usage
RunCache::usage() const
{
    Usage u;
    if (conf.dir.empty())
        return u;
    for (const auto &e : listEntries(fs::path(conf.dir) /
                                     schemaDirName())) {
        ++u.entries;
        u.bytes += e.bytes;
    }
    return u;
}

std::uint64_t
RunCache::removeAll()
{
    if (conf.dir.empty())
        return 0;
    std::uint64_t removed = 0;
    std::error_code ec;
    for (const auto &e : listEntries(conf.dir)) {
        if (fs::remove(e.path, ec) && !ec)
            ++removed;
    }
    return removed;
}

std::uint64_t
RunCache::gc(std::uint64_t maxBytes)
{
    if (conf.dir.empty())
        return 0;

    std::uint64_t removed = 0;
    std::error_code ec;

    // Foreign schema versions can never hit again: drop whole trees.
    fs::directory_iterator top(conf.dir, ec);
    if (!ec) {
        std::vector<fs::path> foreign;
        for (const auto &de : top) {
            if (de.is_directory(ec) && !ec &&
                de.path().filename() != schemaDirName())
                foreign.push_back(de.path());
        }
        for (const auto &p : foreign) {
            removed += static_cast<std::uint64_t>(
                listEntries(p).size());
            fs::remove_all(p, ec);
        }
    }

    // Then evict oldest-first within the live tree until it fits.
    auto entries = listEntries(fs::path(conf.dir) / schemaDirName());
    std::sort(entries.begin(), entries.end(),
              [](const EntryFile &a, const EntryFile &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path.native() < b.path.native();
              });
    std::uint64_t total = 0;
    for (const auto &e : entries)
        total += e.bytes;
    for (const auto &e : entries) {
        if (total <= maxBytes)
            break;
        if (fs::remove(e.path, ec) && !ec) {
            total -= e.bytes;
            ++removed;
        }
    }
    return removed;
}

} // namespace mcd
