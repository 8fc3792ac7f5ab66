/**
 * @file
 * Hierarchical statistics registry (the stats pillar of src/obs/).
 *
 * Components register named stats under dotted paths — e.g.
 * `int.controller.freq_changes` or `frontend.rob.retired` — in the
 * gem5 regStats tradition, and the registry renders them sorted
 * (std::map order, so dumps are deterministic by construction) to
 * text and JSON.
 *
 * Three value kinds: integer and double callbacks, which read a
 * component counter lazily at dump time and therefore cost nothing
 * during simulation, and an owned Distribution (SummaryStats:
 * count/mean/variance/min/max) for values no component keeps.
 *
 * Determinism policy (see DESIGN.md "Observability layer"): only
 * simulation state is registered, never a host-side measurement, so
 * a stats dump is a pure function of configuration and seed —
 * byte-identical across --jobs counts.
 */

#ifndef MCDSIM_OBS_STATS_REGISTRY_HH
#define MCDSIM_OBS_STATS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <variant>

#include "stats/summary.hh"

namespace mcd
{
namespace obs
{

/** Streaming distribution (Welford summary). */
class Distribution
{
  public:
    void add(double x) { s.add(x); }
    const SummaryStats &summary() const { return s; }
    void merge(const Distribution &o) { s.merge(o.s); }

  private:
    SummaryStats s;
};

/**
 * Named-stat container. Registration returns a reference that stays
 * valid for the registry's lifetime (std::map nodes are stable).
 * Names must be unique, non-empty dotted paths without whitespace;
 * violations are contract failures.
 */
class StatsRegistry
{
  public:
    StatsRegistry() = default;

    StatsRegistry(const StatsRegistry &) = delete;
    StatsRegistry &operator=(const StatsRegistry &) = delete;

    /** Register an owned distribution under @p name. */
    Distribution &addDistribution(const std::string &name,
                                  std::string desc);

    /** @{ Register a dump-time read of an existing component counter.
     *  The callback must outlive the registry's last dump. */
    void addIntCallback(const std::string &name, std::string desc,
                        std::function<std::uint64_t()> fn);
    void addCallback(const std::string &name, std::string desc,
                     std::function<double()> fn);
    /** @} */

    std::size_t size() const { return entries.size(); }
    bool contains(const std::string &name) const;

    /**
     * Render every stat, sorted by name, one line per scalar:
     *   <name> <value> # <desc>
     * Distributions expand into dotted sub-keys
     * (.count/.mean/.variance/.min/.max).
     */
    std::string renderText() const;

    /** Flat JSON object keyed by dotted stat name, sorted. */
    std::string renderJson() const;

  private:
    struct Entry
    {
        std::string desc;
        std::variant<Distribution, std::function<std::uint64_t()>,
                     std::function<double()>>
            value;
    };

    Entry &insert(const std::string &name, std::string desc);

    std::map<std::string, Entry> entries;
};

} // namespace obs
} // namespace mcd

#endif // MCDSIM_OBS_STATS_REGISTRY_HH
