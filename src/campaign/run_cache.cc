#include "campaign/run_cache.hh"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "campaign/result_io.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/parse.hh"

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
    return "v" + std::to_string(kRunSpecSchemaVersion);
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

/**
 * Entry envelope: tag line, digest line, then spec and result as
 * length-prefixed blobs. parse() returns false on any malformation —
 * the caller treats that as a stale entry, never an error.
 */
struct Envelope
{
    std::string digest;
    std::string spec;
    std::string result;

    std::string
    render() const
    {
        std::string out;
        out += kEntryTag;
        out += "\ndigest=";
        out += digest;
        out += '\n';
        appendBlob(out, "spec", spec);
        appendBlob(out, "result", result);
        out += "end\n";
        return out;
    }

    bool
    parse(const std::string &text)
    {
        std::size_t pos = 0;
        if (!takeLine(text, pos, std::string(kEntryTag)))
            return false;
        std::string digestLine;
        if (!nextLine(text, pos, digestLine) ||
            digestLine.rfind("digest=", 0) != 0)
            return false;
        digest = digestLine.substr(7);
        return takeBlob(text, pos, "spec", spec) &&
               takeBlob(text, pos, "result", result) &&
               takeLine(text, pos, "end") && pos == text.size();
    }

  private:
    static void
    appendBlob(std::string &out, const char *key,
               const std::string &value)
    {
        out += key;
        out += '*';
        out += std::to_string(value.size());
        out += '\n';
        out += value;
        out += '\n';
    }

    static bool
    nextLine(const std::string &text, std::size_t &pos, std::string &out)
    {
        const auto nl = text.find('\n', pos);
        if (nl == std::string::npos)
            return false;
        out = text.substr(pos, nl - pos);
        pos = nl + 1;
        return true;
    }

    static bool
    takeLine(const std::string &text, std::size_t &pos,
             const std::string &expected)
    {
        std::string l;
        return nextLine(text, pos, l) && l == expected;
    }

    static bool
    takeBlob(const std::string &text, std::size_t &pos, const char *key,
             std::string &out)
    {
        std::string header;
        if (!nextLine(text, pos, header))
            return false;
        const std::string prefix = std::string(key) + "*";
        if (header.rfind(prefix, 0) != 0)
            return false;
        std::uint64_t len = 0;
        try {
            len = parseUint(std::string_view(header).substr(prefix.size()),
                            "cache-entry", text.size() - pos);
        } catch (const ConfigError &) {
            return false;
        }
        if (pos + len + 1 > text.size() || text[pos + len] != '\n')
            return false;
        out = text.substr(pos, len);
        pos += len + 1;
        return true;
    }
};

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
    const std::string digest = specDigest(spec);
    fs::path p = fs::path(conf.dir) / schemaDirName() /
                 digest.substr(0, 2) / (digest + ".run");
    return p.string();
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

    const std::string digest = specDigest(spec);
    const fs::path path = fs::path(conf.dir) / schemaDirName() /
                          digest.substr(0, 2) / (digest + ".run");
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
    Envelope env;
    if (!env.parse(*text) || env.digest != digest ||
        env.spec != canonicalText(spec)) {
        ++counters.stale;
        return std::nullopt;
    }
    try {
        SimResult r = deserializeResult(env.result);
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

    Envelope env;
    env.digest = specDigest(spec);
    env.spec = canonicalText(spec);
    env.result = serializeResult(result);

    const fs::path path = fs::path(conf.dir) / schemaDirName() /
                          env.digest.substr(0, 2) /
                          (env.digest + ".run");
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
        out << env.render();
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
