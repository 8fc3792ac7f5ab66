/**
 * @file
 * Wattch-style activity-based energy model.
 *
 * Dynamic energy: each microarchitectural event (fetch, rename, queue
 * write, wakeup CAM sweep, ALU op, cache access, retire) costs a fixed
 * effective capacitance charged at the owning domain's *current*
 * voltage: E = coeff * (V / Vnom)^2. Clock-tree energy accrues per
 * domain cycle, reduced to a small fraction on fully idle cycles
 * (Table 1 assumes aggressive clock gating). Static leakage accrues
 * with integral(V^2 dt) per domain regardless of clock activity.
 *
 * Absolute joules are calibrated only loosely (Wattch-class 100 nm
 * numbers); the paper's results — and ours — are *relative* energy
 * versus the full-speed synchronous baseline, which this model
 * captures through the V^2 scaling and per-domain accounting.
 */

#ifndef MCDSIM_POWER_ENERGY_MODEL_HH
#define MCDSIM_POWER_ENERGY_MODEL_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hh"
#include "mcd/clock_domain.hh"

namespace mcd
{

namespace obs
{
class StatsRegistry;
} // namespace obs

/** Energy bookkeeping categories. */
enum class EnergyCategory : std::uint8_t
{
    Clock,
    Fetch,
    Rename,
    Rob,
    IssueQueue,
    Execute,
    Cache,
    Retire,
    Leakage,
    Regulator,
};

constexpr std::size_t numEnergyCategories = 10;

/** Category name for reports. */
const char *energyCategoryName(EnergyCategory cat);

/** Per-domain, per-category joule accumulator. */
class EnergyModel
{
  public:
    struct Config
    {
        /** Nominal voltage the coefficients are specified at. */
        Volt vNominal = 1.20;

        /** @{ Dynamic energy per event, joules at vNominal. */
        double fetchPerInst = 0.40e-9;
        double renamePerInst = 0.30e-9;
        double robPerInst = 0.20e-9;
        double iqWritePerInst = 0.15e-9;
        double iqWakeupPerEntry = 0.012e-9;
        double intAluOp = 0.25e-9;
        double intMulDivOp = 0.50e-9;
        double fpAluOp = 0.60e-9;
        double fpMulDivOp = 1.00e-9;
        double l1AccessEnergy = 0.50e-9;
        double l2AccessEnergy = 2.00e-9;
        double retirePerInst = 0.15e-9;
        /** @} */

        /**
         * Clock-tree energy per domain cycle at vNominal. In the
         * 4-domain partition the FrontEnd figure covers fetch too; in
         * the 5-domain partition it splits with the Fetch domain.
         */
        std::array<double, numDomains> clockPerCycle = {
            0.30e-9, 0.25e-9, 0.22e-9, 0.25e-9, 0.15e-9};

        /** Fraction of clock energy drawn on a gated (idle) cycle. */
        double gatedClockFraction = 0.15;

        /** Leakage conductance per domain, watts per volt^2. */
        std::array<double, numDomains> leakagePerV2 = {0.12, 0.10, 0.09,
                                                       0.10, 0.05};

        /** Voltage-regulator energy per DVFS transition. */
        double regulatorPerTransition = 0.0;
    };

    EnergyModel() : EnergyModel(Config{}) {}
    explicit EnergyModel(const Config &config) : cfg(config) {}

    /** Charge @p count events of @p base joules in @p dom at @p v. */
    void
    addEvent(DomainId dom, EnergyCategory cat, double base, Volt v,
             double count = 1.0)
    {
        charge(dom, cat, eventJoules(base, v, count));
    }

    /** Clock-tree energy for one domain cycle. */
    void
    addClockCycle(DomainId dom, Volt v, bool active)
    {
        charge(dom, EnergyCategory::Clock, clockJoules(dom, v, active));
    }

    /** @{ What addEvent() and addClockCycle() add, for a caller that
     *  charges the same amount many times. */
    double
    eventJoules(double base, Volt v, double count = 1.0) const
    {
        const double scale = (v / cfg.vNominal) * (v / cfg.vNominal);
        return base * scale * count;
    }

    double
    clockJoules(DomainId dom, Volt v, bool active) const
    {
        const double base =
            cfg.clockPerCycle[static_cast<std::size_t>(dom)] *
            (active ? 1.0 : cfg.gatedClockFraction);
        return eventJoules(base, v);
    }
    /** @} */

    /** Add @p j joules to (@p dom, @p cat). */
    void
    charge(DomainId dom, EnergyCategory cat, double j)
    {
        joules(dom, cat) += j;
    }

    /** Leakage from an integral of V^2 over wall time (V^2 * s). */
    void
    addLeakage(DomainId dom, double volt_squared_seconds)
    {
        joules(dom, EnergyCategory::Leakage) +=
            cfg.leakagePerV2[static_cast<std::size_t>(dom)] *
            volt_squared_seconds;
    }

    /** Regulator switching cost for one transition. */
    void
    addRegulatorTransition(DomainId dom)
    {
        joules(dom, EnergyCategory::Regulator) +=
            cfg.regulatorPerTransition;
    }

    /** @{ Queries. */
    double
    domainEnergy(DomainId dom) const
    {
        double sum = 0.0;
        for (std::size_t c = 0; c < numEnergyCategories; ++c)
            sum += table[static_cast<std::size_t>(dom)][c];
        return sum;
    }

    double
    categoryEnergy(EnergyCategory cat) const
    {
        double sum = 0.0;
        for (std::size_t d = 0; d < numDomains; ++d)
            sum += table[d][static_cast<std::size_t>(cat)];
        return sum;
    }

    double
    cell(DomainId dom, EnergyCategory cat) const
    {
        return table[static_cast<std::size_t>(dom)]
                    [static_cast<std::size_t>(cat)];
    }

    double
    totalEnergy() const
    {
        double sum = 0.0;
        for (std::size_t d = 0; d < numDomains; ++d)
            sum += domainEnergy(static_cast<DomainId>(d));
        return sum;
    }
    /** @} */

    const Config &config() const { return cfg; }

    /**
     * Register energy stats under @p prefix: "<prefix>.total_j",
     * "<prefix>.<domain>.j" for the first @p domain_count domains, and
     * "<prefix>.category.<name>_j" totals. Dump-time callbacks; dump
     * after finalization (leakage accrual) for complete numbers.
     */
    void registerStats(obs::StatsRegistry &reg, const std::string &prefix,
                       std::size_t domain_count) const;

  private:
    double &
    joules(DomainId dom, EnergyCategory cat)
    {
        return table[static_cast<std::size_t>(dom)]
                    [static_cast<std::size_t>(cat)];
    }

    Config cfg;
    std::array<std::array<double, numEnergyCategories>, numDomains>
        table{};
};

} // namespace mcd

#endif // MCDSIM_POWER_ENERGY_MODEL_HH
