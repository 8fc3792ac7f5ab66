/**
 * @file
 * RunSpec: the canonical description of one simulation run.
 *
 * Every way of launching a run — the execution layer's RunTask
 * fan-out (exec/parallel_runner.hh) and the campaign engine
 * (campaign/campaign.hh) built on it — bottoms out in one entry
 * point, declared in exec/run.hh:
 *
 *   SimResult r = mcd::run(spec);
 *
 * A RunSpec also has a *canonical serialization*: a deterministic,
 * versioned, line-oriented text rendering of every semantically
 * significant field (benchmark, kind, controller, seed, instruction
 * budget, the full SimConfig, the fault plan in canonical form, and
 * the observability switches that change which artifacts a result
 * carries), written as a record (common/record.hh). Floating-point
 * fields render as the hex of their IEEE-754 bits and text fields are
 * escaped onto one line, so two specs have equal text iff they
 * describe bit-identical runs.
 * specDigest() hashes that text (SHA-256) into the content address
 * the run cache stores results under.
 *
 * Execution policy — retry budget (RunOptions::maxAttempts), wall
 * deadline, and worker count — is deliberately *excluded* from the
 * canonical form: it changes how a run is babysat, never what a
 * completed run computes. Specs carrying host-dependent callables
 * (SimConfig::customController / cancelCheck) have no canonical form
 * for the callable itself, so they are not cacheable(); everything
 * else is.
 *
 * Versioning policy: bump kRunSpecSchemaVersion whenever simulator
 * semantics change in a way that invalidates previously computed
 * results (new config field, changed event ordering, different
 * defaults). The version participates in the digest, so every cache
 * entry from an older schema silently becomes a miss; `mcdsim_cli
 * cache gc` reclaims the orphaned files.
 */

#ifndef MCDSIM_CORE_RUN_SPEC_HH
#define MCDSIM_CORE_RUN_SPEC_HH

#include <cstdint>
#include <string>

#include "core/runner.hh"

namespace mcd
{

/**
 * Canonical-serialization schema version. Participates in every
 * digest; see the file comment for when to bump it.
 */
constexpr std::uint32_t kRunSpecSchemaVersion = 1;

/** What a run simulates. */
enum class RunKind : std::uint8_t
{
    Scheme,       ///< RunSpec::controller drives the controlled domains
    McdBaseline,  ///< full-speed MCD substrate, DVFS off
    SyncBaseline, ///< conventional synchronous chip at f_max
};

/** Canonical spelling: "scheme", "mcd-baseline", "sync-baseline". */
const char *runKindName(RunKind kind);

/** The canonical description of one simulation run. */
struct RunSpec
{
    std::string benchmark;
    RunKind kind = RunKind::Scheme;

    /** Scheme driving the controlled domains (Scheme runs only). */
    ControllerKind controller = ControllerKind::Adaptive;

    /** Workload seed; overrides options.seed. */
    std::uint64_t seed = 1;

    /** Everything else: instruction budget, SimConfig, observability. */
    RunOptions options{};
};

/** @{ Spec builders (the seed defaults to the options' seed). */
RunSpec schemeSpec(std::string benchmark, ControllerKind controller,
                   const RunOptions &opts);
RunSpec mcdBaselineSpec(std::string benchmark, const RunOptions &opts);
RunSpec syncBaselineSpec(std::string benchmark, const RunOptions &opts);
/** @} */

/** Report label: the scheme name, or the baseline's fixed label. */
std::string runLabel(RunKind kind, ControllerKind controller);

inline std::string
runLabel(const RunSpec &spec)
{
    return runLabel(spec.kind, spec.controller);
}

/**
 * The effective SimConfig of @p spec: options.config with the
 * controller / seed / mcdEnabled / observability / fault-label
 * overrides the run kind implies.
 */
SimConfig resolveConfig(const RunSpec &spec);

/** The same, for a run described piecewise (see exec/run.hh). */
SimConfig resolveConfig(RunKind kind, ControllerKind controller,
                        std::uint64_t seed, const RunOptions &opts);

/**
 * Deterministic, versioned text rendering of every semantic field
 * (see the file comment). Stable across processes, hosts, --jobs
 * counts, and the order fields were assigned in.
 *
 * @p schemaVersion exists for tests that prove a version bump changes
 * the digest; production callers use the default.
 */
std::string canonicalText(const RunSpec &spec,
                          std::uint32_t schemaVersion =
                              kRunSpecSchemaVersion);

/** SHA-256 of canonicalText(), as 64 hex characters: the cache key. */
std::string specDigest(const RunSpec &spec);

/**
 * False when the spec carries host-bound callables with no canonical
 * form (customController, cancelCheck): such runs execute normally
 * but can never be stored in or served from the run cache.
 */
bool cacheable(const RunSpec &spec);

} // namespace mcd

#endif // MCDSIM_CORE_RUN_SPEC_HH
