/**
 * @file
 * Content-addressed on-disk cache of completed simulation runs.
 *
 * The cache key is specDigest(): SHA-256 over the canonical RunSpec
 * text, which covers every semantic input of a run (benchmark, kind,
 * scheme, seed, full SimConfig, fault plan, artifact switches, schema
 * version). Because every run is a pure function of those inputs
 * (tests/integration/test_determinism.cc), a stored SimResult is
 * byte-identical to recomputing it — the whole point of the layer.
 *
 * Store layout, under the configured directory:
 *
 *   <dir>/v<schema>/<digest[0:2]>/<digest>.run
 *
 * Each entry is a record (common/record.hh): a tag line, its digest,
 * the full canonical spec text and the serialized result as blobs, and
 * an "end" line. Lookup re-verifies the digest and the spec text, and
 * any envelope or result the strict reader rejects degrades to a miss
 * (counted as stale), so a corrupted, truncated, or colliding entry
 * never yields a wrong result.
 * The schema version is baked into both the path and the digest, so
 * entries written by an older simulator silently stop matching; gc()
 * reclaims those orphaned trees.
 *
 * Writes go through a temp file + rename, so a crash mid-store leaves
 * no half-written entry. The cache is used from the coordinating
 * thread only (campaign hits are resolved before worker fan-out);
 * nothing here is thread-safe, by design — src/exec owns all
 * threading in this codebase.
 */

#ifndef MCDSIM_CAMPAIGN_RUN_CACHE_HH
#define MCDSIM_CAMPAIGN_RUN_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "core/run_spec.hh"

namespace mcd
{

/** What cache traffic a harness allows. */
enum class CacheMode : std::uint8_t
{
    Off,       ///< never touch the store (the default)
    Read,      ///< serve hits, never write
    ReadWrite, ///< serve hits and store fresh results
};

/** Canonical spelling: "off", "read", "readwrite". */
const char *cacheModeName(CacheMode mode);

/** Parse "off" / "read" / "readwrite"; throws ConfigError at
 *  site "--cache" on anything else. */
CacheMode parseCacheMode(const std::string &text);

/** Where the store lives and what traffic is allowed. */
struct CacheConfig
{
    std::string dir;
    CacheMode mode = CacheMode::Off;
};

/**
 * Resolve the cache directory: @p explicitDir if non-empty, else the
 * MCDSIM_CACHE_DIR environment variable, else "". When @p mode needs
 * a directory and none resolves, throws ConfigError at "--cache-dir".
 */
CacheConfig resolveCacheConfig(CacheMode mode,
                               const std::string &explicitDir);

/** The content-addressed run store. Not thread-safe (see file doc). */
class RunCache
{
  public:
    /** Observability counters for one cache session. */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t stale = 0;       ///< entry present but unusable
        std::uint64_t stores = 0;
        std::uint64_t uncacheable = 0; ///< spec had no canonical form
        std::uint64_t errors = 0;      ///< filesystem trouble (warned)
    };

    /** Store footprint, current schema version only. */
    struct Usage
    {
        std::uint64_t entries = 0;
        std::uint64_t bytes = 0;
    };

    explicit RunCache(CacheConfig config);

    const CacheConfig &config() const { return conf; }
    bool enabled() const;  ///< mode != Off and a directory is set
    bool writable() const; ///< enabled() and mode == ReadWrite

    /** Entry file path for @p spec (exists or not). */
    std::string entryPath(const RunSpec &spec) const;

    /**
     * The cached result of @p spec, if an entry exists and verifies
     * (digest and canonical text both match). Misses, stale entries,
     * uncacheable specs, and disabled caches all return nullopt;
     * stats() says which.
     */
    std::optional<SimResult> lookup(const RunSpec &spec);

    /**
     * Store @p result as the outcome of @p spec. Returns true when an
     * entry was written; no-op (false) unless writable() and the spec
     * is cacheable(). Filesystem failures warn and count as errors —
     * a broken cache must never fail a computed run.
     */
    bool store(const RunSpec &spec, const SimResult &result);

    const Stats &stats() const { return counters; }

    /** Scan the current-schema tree. Zero when disabled. */
    Usage usage() const;

    /** Remove every entry, all schema versions. Returns files removed. */
    std::uint64_t removeAll();

    /**
     * Evict: drop every foreign-schema tree outright, then the oldest
     * current-schema entries (by mtime, then name) until the tree is
     * within @p maxBytes. Returns files removed.
     */
    std::uint64_t gc(std::uint64_t maxBytes);

  private:
    CacheConfig conf;
    Stats counters;
};

} // namespace mcd

#endif // MCDSIM_CAMPAIGN_RUN_CACHE_HH
