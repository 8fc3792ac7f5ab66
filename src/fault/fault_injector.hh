/**
 * @file
 * Deterministic per-run fault injection.
 *
 * A FaultInjector is instantiated once per simulation run from a
 * shared immutable FaultPlan plus the run's Identity (benchmark,
 * scheme, seed). All randomness comes from Rng streams forked per
 * (spec, domain) at construction, so
 *
 *   - two runs with the same identity and plan inject byte-identical
 *     fault sequences regardless of --jobs or host;
 *   - adding a spec never perturbs the draw sequence of another spec;
 *   - the simulator's own Rng streams are untouched (faults never
 *     share a stream with jitter or workload generation).
 *
 * The simulator calls the hook methods at the named sites; every hook
 * is a no-op returning its input when no spec applies, and the entire
 * injector is absent (null pointer) when no plan is configured, so
 * the fault-free hot path stays a single predictable branch.
 */

#ifndef MCDSIM_FAULT_FAULT_INJECTOR_HH
#define MCDSIM_FAULT_FAULT_INJECTOR_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "dvfs/controller.hh"
#include "fault/fault_plan.hh"

namespace mcd
{

namespace obs
{
class StatsRegistry;
}

/** Seeded, deterministic fault injection for one simulation run. */
class FaultInjector
{
  public:
    /** Names the run an injector belongs to. */
    struct Identity
    {
        std::string benchmark = "*";
        std::string scheme = "*";
        std::uint64_t seed = 1;
    };

    FaultInjector(std::shared_ptr<const FaultPlan> plan, Identity id);

    const Identity &identity() const { return _id; }

    /** True when at least one sim-level spec applies to this run. */
    bool active() const { return !_arms.empty(); }

    // ---- Simulation-level hooks ---------------------------------

    /**
     * sensor-noise: the occupancy the controller will observe.
     * The true occupancy (and the value recorded in stats/traces)
     * is unchanged; only the control loop sees the noise.
     */
    double perturbOccupancy(std::size_t dom, double occ);

    /** drop-update: true when this sampling tick's update is lost. */
    bool dropUpdate(std::size_t dom);

    /**
     * delay-update: pass the controller's decision through the
     * per-domain delay line. Call once per surviving sampling tick;
     * the returned decision is what the driver should act on.
     */
    DvfsDecision filterDecision(std::size_t dom, DvfsDecision d);

    /** clamp-vf: the target the driver is allowed to request, Hz. */
    double clampTarget(std::size_t dom, double target_hz);

    // ---- Accounting ---------------------------------------------

    /** Faults injected at @p site so far this run. */
    std::uint64_t injectedCount(FaultSite site) const
    {
        return _injected[static_cast<std::size_t>(site)];
    }

    /** Total faults injected across all sites. */
    std::uint64_t injectedTotal() const;

    /**
     * Register counters under @p prefix: one
     * "<prefix>.<site_with_underscores>_injected" int callback per
     * sim-level site present in the plan, plus "<prefix>.attempt"
     * (always 1).
     */
    void registerStats(obs::StatsRegistry &reg,
                       const std::string &prefix) const;

  private:
    static constexpr std::size_t numDomains = 3;

    /** One applicable spec with its per-domain random streams. */
    struct Arm
    {
        const FaultSpec *spec;
        std::array<Rng, numDomains> rng;
    };

    /** A decision held in a delay line. */
    struct Pending
    {
        DvfsDecision decision;
        std::uint32_t remaining;
    };

    bool fires(Arm &arm, std::size_t dom);

    std::shared_ptr<const FaultPlan> _plan;
    Identity _id;

    /** Sim-level specs applicable to this run, in plan order. */
    std::vector<Arm> _arms;

    /** Per-site index into _arms (site -> arm indices). */
    std::array<std::vector<std::size_t>, numFaultSites> _bySite;

    std::array<std::deque<Pending>, numDomains> _delayLines;

    std::array<std::uint64_t, numFaultSites> _injected{};

    /** Stale delayed decisions discarded in favour of fresher ones. */
    std::uint64_t _staleDropped = 0;
};

} // namespace mcd

#endif // MCDSIM_FAULT_FAULT_INJECTOR_HH
