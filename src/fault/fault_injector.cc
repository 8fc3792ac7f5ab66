#include "fault/fault_injector.hh"

#include <algorithm>
#include <numeric>

#include "obs/stats_registry.hh"

namespace mcd
{

namespace
{

/** Stat-path spelling of a site ("sensor-noise" -> "sensor_noise"). */
std::string
siteStatName(FaultSite site)
{
    std::string name = faultSiteName(site);
    std::replace(name.begin(), name.end(), '-', '_');
    return name;
}

} // namespace

FaultInjector::FaultInjector(std::shared_ptr<const FaultPlan> plan,
                             Identity id)
    : _plan(std::move(plan)), _id(std::move(id))
{
    if (!_plan)
        return;

    // Every stream descends from the seed, then forks per (spec
    // index, domain): spec order and domain index fully determine a
    // stream, so concurrent runs and plan edits can never shift
    // another spec's sequence. The "+ 1" is the attempt number runs
    // once had; it stays, so no injected sequence moves, until the
    // next kRunSpecSchemaVersion bump drops it.
    const Rng runBase = Rng(_id.seed).fork(0xFA171000ull + 1);

    const auto &specs = _plan->specs();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const FaultSpec &fs = specs[i];
        if (fs.site == FaultSite::TaskThrow)
            continue; // exec-level: handled by ParallelRunner
        if (!fs.matchesRun(_id.benchmark, _id.scheme))
            continue;

        Arm arm;
        arm.spec = &fs;
        for (std::size_t dom = 0; dom < numDomains; ++dom) {
            const std::uint64_t key =
                ((i + 1) << 16) |
                (static_cast<std::uint64_t>(fs.site) << 8) | dom;
            arm.rng[dom] = runBase.fork(key);
        }
        _bySite[static_cast<std::size_t>(fs.site)].push_back(_arms.size());
        _arms.push_back(std::move(arm));
    }
}

bool
FaultInjector::fires(Arm &arm, std::size_t dom)
{
    // Draw even at rate 1.0 so lowering a rate never shifts the
    // stream positions of later draws from the same arm.
    return arm.rng[dom].chance(arm.spec->rate);
}

double
FaultInjector::perturbOccupancy(std::size_t dom, double occ)
{
    for (std::size_t i :
         _bySite[static_cast<std::size_t>(FaultSite::SensorNoise)]) {
        Arm &arm = _arms[i];
        if (!arm.spec->matchesDomain(dom))
            continue;
        const double noise =
            arm.rng[dom].gaussian(0.0, arm.spec->amplitude);
        if (!fires(arm, dom))
            continue;
        occ = std::max(0.0, occ + noise);
        ++_injected[static_cast<std::size_t>(FaultSite::SensorNoise)];
    }
    return occ;
}

bool
FaultInjector::dropUpdate(std::size_t dom)
{
    bool dropped = false;
    for (std::size_t i :
         _bySite[static_cast<std::size_t>(FaultSite::DropUpdate)]) {
        Arm &arm = _arms[i];
        if (!arm.spec->matchesDomain(dom))
            continue;
        if (fires(arm, dom)) {
            dropped = true;
            ++_injected[static_cast<std::size_t>(FaultSite::DropUpdate)];
        }
    }
    return dropped;
}

DvfsDecision
FaultInjector::filterDecision(std::size_t dom, DvfsDecision d)
{
    const auto &idx =
        _bySite[static_cast<std::size_t>(FaultSite::DelayUpdate)];
    if (idx.empty())
        return d;

    auto &line = _delayLines[dom];
    for (Pending &p : line)
        if (p.remaining > 0)
            --p.remaining;

    // A fresh change decision may be captured into the delay line.
    if (d.change) {
        for (std::size_t i : idx) {
            Arm &arm = _arms[i];
            if (!arm.spec->matchesDomain(dom))
                continue;
            if (fires(arm, dom)) {
                line.push_back(Pending{d, arm.spec->delaySamples});
                ++_injected[static_cast<std::size_t>(
                    FaultSite::DelayUpdate)];
                d = DvfsDecision{};
                break;
            }
        }
    }

    // Release the head of the line once its hold expires. A fresh
    // decision that passed through untouched supersedes a stale
    // delayed one (the controller has newer information).
    if (!line.empty() && line.front().remaining == 0) {
        const Pending head = line.front();
        line.pop_front();
        if (!d.change)
            d = head.decision;
        else
            ++_staleDropped;
    }
    return d;
}

double
FaultInjector::clampTarget(std::size_t dom, double target_hz)
{
    for (std::size_t i :
         _bySite[static_cast<std::size_t>(FaultSite::ClampVf)]) {
        Arm &arm = _arms[i];
        if (!arm.spec->matchesDomain(dom))
            continue;
        if (!fires(arm, dom))
            continue;
        const double lo = arm.spec->loGhz * 1e9;
        const double hi = arm.spec->hiGhz * 1e9;
        const double clamped = std::clamp(target_hz, lo, hi);
        if (clamped != target_hz) {
            target_hz = clamped;
            ++_injected[static_cast<std::size_t>(FaultSite::ClampVf)];
        }
    }
    return target_hz;
}

std::uint64_t
FaultInjector::injectedTotal() const
{
    return std::accumulate(_injected.begin(), _injected.end(),
                           std::uint64_t{0});
}

void
FaultInjector::registerStats(obs::StatsRegistry &reg,
                             const std::string &prefix) const
{
    // Every run is one attempt. The stat stays, reporting 1, because
    // cached statsText carries it; the next kRunSpecSchemaVersion bump
    // drops it.
    reg.addIntCallback(prefix + ".attempt", "run attempt number",
                       [] { return std::uint64_t{1}; });
    bool present[numFaultSites] = {};
    for (const Arm &arm : _arms)
        present[static_cast<std::size_t>(arm.spec->site)] = true;
    for (std::size_t s = 0; s < numFaultSites; ++s) {
        if (!present[s])
            continue;
        const auto site = static_cast<FaultSite>(s);
        reg.addIntCallback(prefix + "." + siteStatName(site) + "_injected",
                           "faults injected at this site",
                           [this, s] { return _injected[s]; });
    }
    if (present[static_cast<std::size_t>(FaultSite::DelayUpdate)])
        reg.addIntCallback(prefix + ".stale_decisions_dropped",
                           "delayed decisions superseded by fresher ones",
                           [this] { return _staleDropped; });
}

} // namespace mcd
