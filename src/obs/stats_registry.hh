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
 * Four value kinds:
 *  - Counter       monotonically increasing integer;
 *  - Gauge         instantaneous double;
 *  - Distribution  SummaryStats (count/mean/stdev/min/max);
 *  - Histogram     fixed-bin histogram from stats/histogram.hh;
 * plus callback stats, which read a component counter lazily at dump
 * time and therefore cost nothing during simulation — the preferred
 * form for anything a component already tracks.
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
#include <ostream>
#include <string>
#include <variant>

#include "stats/histogram.hh"
#include "stats/summary.hh"

namespace mcd
{
namespace obs
{

/** Monotonically increasing event count. */
class Counter
{
  public:
    Counter &operator++()
    {
        ++n;
        return *this;
    }

    void add(std::uint64_t delta) { n += delta; }
    std::uint64_t value() const { return n; }
    void reset() { n = 0; }

  private:
    std::uint64_t n = 0;
};

/** Instantaneous scalar. */
class Gauge
{
  public:
    void set(double value) { v = value; }
    double value() const { return v; }

  private:
    double v = 0.0;
};

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

    /** @{ Register an owned stat under @p name. */
    Counter &addCounter(const std::string &name, std::string desc);
    Gauge &addGauge(const std::string &name, std::string desc);
    Distribution &addDistribution(const std::string &name,
                                  std::string desc);
    Histogram &addHistogram(const std::string &name, std::string desc,
                            double lo, double hi, std::size_t bins);
    /** @} */

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
     * Distributions and histograms expand into dotted sub-keys
     * (.count/.mean/.stdev/.min/.max, .bin<i>/.underflow/...).
     */
    void dumpText(std::ostream &os) const;

    /** Flat JSON object keyed by dotted stat name, sorted. */
    void dumpJson(std::ostream &os) const;

    std::string renderText() const;
    std::string renderJson() const;

  private:
    struct Entry
    {
        std::string desc;
        std::variant<Counter, Gauge, Distribution, Histogram,
                     std::function<std::uint64_t()>,
                     std::function<double()>>
            value;
    };

    Entry &insert(const std::string &name, std::string desc);

    std::map<std::string, Entry> entries;
};

} // namespace obs
} // namespace mcd

#endif // MCDSIM_OBS_STATS_REGISTRY_HH
