/**
 * @file
 * Phase-structured synthetic trace generator.
 *
 * Stands in for the MediaBench / SPEC2000 binaries of the paper's
 * evaluation (which require SimpleScalar and the original inputs).
 * Each benchmark is described as a sequence of phases; a phase fixes
 * the instruction mix, available ILP (mean register-dependence
 * distance), memory working set and locality, and branch behaviour.
 * Optional within-phase modulation varies FP/ILP intensity on a
 * sine or square wave, producing the fast workload variation that
 * distinguishes the paper's "rapidly varying" application group.
 *
 * All randomness is drawn from generators forked deterministically
 * from the benchmark seed, so a source replays the identical stream
 * after reset().
 */

#ifndef MCDSIM_WORKLOAD_PHASE_GENERATOR_HH
#define MCDSIM_WORKLOAD_PHASE_GENERATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"
#include "workload/source.hh"

namespace mcd
{

/** Shape of within-phase intensity modulation. */
enum class ModShape : std::uint8_t
{
    None,
    Sine,
    Square,
};

/** Static description of one program phase. */
struct PhaseSpec
{
    std::string label = "phase";

    /** Relative duration (scaled to the requested total). */
    double weight = 1.0;

    /** Fraction of instructions that are FP operations. */
    double fracFp = 0.0;

    /** Fraction that are loads / stores. */
    double fracLoad = 0.18;
    double fracStore = 0.08;

    /** Fraction that are branches. */
    double fracBranch = 0.12;

    /** Multiplier/divider shares within the INT and FP op groups. */
    double fracMulOfInt = 0.05;
    double fracDivOfInt = 0.01;
    double fracMulOfFp = 0.30;
    double fracDivOfFp = 0.05;

    /** Mean register-dependence distance (higher = more ILP). */
    double meanDepDist = 6.0;

    /** Data working set touched by this phase. */
    std::uint32_t workingSetKb = 32;

    /** Fraction of memory accesses that stream sequentially. */
    double seqFraction = 0.6;

    /** Of the non-streaming accesses, fraction hitting the hot set. */
    double hotFraction = 0.85;

    /** Size of the hot (high-temporal-locality) region. */
    std::uint32_t hotSetKb = 16;

    /** Number of distinct static branches. */
    std::uint32_t staticBranches = 64;

    /**
     * Mean outcome bias of static branches in [0.5, 1.0); higher
     * means more predictable control flow.
     */
    double predictability = 0.92;

    /** Within-phase modulation of FP share and ILP. */
    ModShape modShape = ModShape::None;
    double modDepth = 0.0;
    double modPeriodInsts = 0.0;
};

/** Deterministic trace generator over a list of phases. */
class PhaseTraceGenerator : public WorkloadSource
{
  public:
    /**
     * @param total  Total instructions to emit; phase weights are
     *               scaled so the phases exactly tile this count.
     * @param cycle  When true, the phase list repeats until @p total
     *               is reached instead of being stretched to fit.
     */
    PhaseTraceGenerator(std::string trace_name,
                        std::vector<PhaseSpec> phase_list,
                        std::uint64_t total, std::uint64_t seed,
                        bool cycle = false);

    bool next(TraceInst &out) override;
    void reset() override;
    std::uint64_t totalInstructions() const override { return totalInsts; }
    std::string name() const override { return traceName; }

    /** Index of the phase the next instruction belongs to. */
    std::size_t currentPhase() const { return phaseIdx; }

    const std::vector<PhaseSpec> &phases() const { return specs; }

  private:
    struct StaticBranch
    {
        /** Behaviour classes mirroring real control flow. */
        enum class Kind : std::uint8_t
        {
            Loop,   ///< taken for period-1 iterations, then not taken
            Biased, ///< i.i.d. with a strong direction bias
            Hard,   ///< i.i.d. near 50/50 (data-dependent branch)
        };

        Addr pc;
        Addr takenTarget;
        Kind kind;
        double takenProb;     ///< Biased/Hard
        std::uint32_t period; ///< Loop
        std::uint32_t count;  ///< Loop position
    };

    void enterPhase(std::size_t idx);
    double modulation() const;
    InstClass pickClass(Rng &rng, double frac_fp, double frac_load);
    Addr pickDataAddr(Rng &rng);
    std::uint16_t pickDepDist(Rng &rng, double mean_dep);

    /** Pick a dependence distance whose producer class is compatible
     *  with @p consumer (FP consumers read FP/load producers, integer
     *  consumers read integer/load producers), mirroring the
     *  intra-cluster dependence locality of real code. */
    std::uint16_t pickClusteredDep(Rng &rng, double mean_dep,
                                   InstClass consumer);

    std::string traceName;
    std::vector<PhaseSpec> specs;
    std::vector<std::uint64_t> phaseCounts;
    std::size_t originalPhaseCount = 1;
    std::uint64_t totalInsts;
    std::uint64_t seed;

    // Streaming state.
    std::size_t phaseIdx = 0;
    std::uint64_t emittedInPhase = 0;
    std::uint64_t emittedTotal = 0;
    Rng rng;
    std::vector<StaticBranch> branches;
    Addr codeBase = 0;
    Addr dataBase = 0;
    Addr pc = 0;
    std::uint64_t seqPtr = 0;

    /** pickDepDist()'s last geometric p and its std::log1p(-p), so a
     *  run of draws at one mean takes the logarithm once. */
    double depP = -1.0;
    double depLog1mP = 0.0;

    /** Ring of the most recent emitted instruction classes. */
    static constexpr std::size_t historySize = 64;
    InstClass recentClasses[historySize] = {};
};

} // namespace mcd

#endif // MCDSIM_WORKLOAD_PHASE_GENERATOR_HH
