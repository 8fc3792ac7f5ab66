/**
 * @file
 * Deterministic fault plans.
 *
 * A FaultPlan is the parsed form of an MCDSIM_FAULTS / --faults spec
 * string: a semicolon-separated list of named injection sites, each
 * with key=value parameters, e.g.
 *
 *   sensor-noise:amp=2.0,rate=0.5,dom=int;task-throw:bench=gzip
 *
 * Sites (see DESIGN.md "Fault tolerance" for semantics):
 *
 *   sensor-noise   amp=<entries> [rate=] [dom=]  gaussian noise on the
 *                  queue-occupancy sample the controller observes
 *   drop-update    [rate=] [dom=]     a sampling tick is lost: the
 *                  controller neither observes nor decides
 *   delay-update   samples=<n> [rate=] [dom=]   a change decision is
 *                  held for n sampling periods before it reaches the
 *                  DVFS driver
 *   clamp-vf       lo=<GHz> hi=<GHz> [dom=]     requested targets are
 *                  clamped into [lo, hi] at the driver
 *   task-throw     [bench=] [scheme=]  the matching run throws
 *                  ExecError before simulating
 *
 * Common keys: rate (probability per opportunity, default 1), dom
 * (int|fp|ls|all, default all), bench/scheme (exact run label or *,
 * default *).
 *
 * Parsing is strict: unknown sites, unknown keys, malformed numbers,
 * and out-of-range values all throw ConfigError. A parsed plan is
 * immutable and shared (std::shared_ptr<const FaultPlan>) by every
 * run of a batch; per-run randomness lives in FaultInjector.
 */

#ifndef MCDSIM_FAULT_FAULT_PLAN_HH
#define MCDSIM_FAULT_FAULT_PLAN_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace mcd
{

/** Named fault-injection sites. */
enum class FaultSite : std::uint8_t
{
    SensorNoise,
    DropUpdate,
    DelayUpdate,
    ClampVf,
    TaskThrow,
};

constexpr std::size_t numFaultSites = 5;

/** Spec-string spelling of @p site ("sensor-noise", ...). */
const char *faultSiteName(FaultSite site);

/** One configured injection site. */
struct FaultSpec
{
    FaultSite site = FaultSite::SensorNoise;

    /** Probability per opportunity, in [0, 1]. */
    double rate = 1.0;

    /** sensor-noise: gaussian stddev in queue entries. */
    double amplitude = 0.0;

    /** delay-update: sampling periods a decision is held. */
    std::uint32_t delaySamples = 0;

    /** clamp-vf: admissible target band, GHz. */
    double loGhz = 0.0;
    double hiGhz = 0.0;

    /** Controlled-domain filter: -1 = all, else 0=INT, 1=FP, 2=LS. */
    int domain = -1;

    /** Run matchers ("*" = any). */
    std::string benchmark = "*";
    std::string scheme = "*";

    /** True when this spec applies to controlled domain @p dom. */
    bool
    matchesDomain(std::size_t dom) const
    {
        return domain < 0 || static_cast<std::size_t>(domain) == dom;
    }

    /** True when this spec applies to the named run. */
    bool matchesRun(const std::string &bench,
                    const std::string &sch) const;
};

/** An immutable, ordered collection of fault specs. */
class FaultPlan
{
  public:
    /** Parse @p spec (see file comment); throws ConfigError. An empty
     *  or all-whitespace string yields an empty plan. */
    static FaultPlan parse(const std::string &spec);

    /** parse() wrapped in a shared_ptr; "" returns nullptr so the
     *  no-plan fast paths stay on the literal null check. */
    static std::shared_ptr<const FaultPlan>
    parseShared(const std::string &spec);

    bool empty() const { return _specs.empty(); }
    const std::vector<FaultSpec> &specs() const { return _specs; }

    /** Specs for @p site, in declaration order. */
    std::vector<const FaultSpec *> specsFor(FaultSite site) const;

    /** True when any spec targets a simulation-level site. */
    bool hasSimFaults() const;

    /** True when a task-throw spec matches the run. */
    bool taskThrows(const std::string &bench,
                    const std::string &scheme) const;

    /** Canonical re-rendering of the plan (stable across parses). */
    std::string canonical() const;

  private:
    std::vector<FaultSpec> _specs;
};

} // namespace mcd

#endif // MCDSIM_FAULT_FAULT_PLAN_HH
