/**
 * @file
 * Combined branch predictor + BTB per Table 1 of the paper:
 * a 1024-entry bimodal predictor, a two-level predictor with a
 * 1024-entry first level, 10 bits of history, and a 1024-entry
 * second level, a 4096-entry combining (chooser) table, and a
 * 4096-set 2-way BTB.
 */

#ifndef MCDSIM_ARCH_BRANCH_PREDICTOR_HH
#define MCDSIM_ARCH_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace mcd
{

/** Prediction returned for one branch. */
struct BranchPrediction
{
    bool taken = false;

    /** Predicted target; valid only when btbHit. */
    Addr target = 0;

    /** True when the BTB held a target for this PC. */
    bool btbHit = false;
};

/** McFarling-style combined predictor with BTB. */
class BranchPredictor
{
  public:
    struct Config
    {
        std::uint32_t bimodalEntries = 1024;
        std::uint32_t l1Entries = 1024;     ///< per-branch history table
        std::uint32_t historyBits = 10;
        std::uint32_t l2Entries = 1024;     ///< pattern history table
        std::uint32_t chooserEntries = 4096;
        std::uint32_t btbSets = 4096;
        std::uint32_t btbAssoc = 2;
    };

    explicit BranchPredictor(const Config &config);
    BranchPredictor() : BranchPredictor(Config{}) {}

    /** Predict direction and target for the branch at @p pc. */
    BranchPrediction predict(Addr pc) const;

    /** Train all structures with the resolved outcome. */
    void update(Addr pc, bool taken, Addr target);

    /** @{ Accuracy bookkeeping (updated by the caller via record*). */
    void recordOutcome(bool direction_correct, bool target_correct);
    std::uint64_t lookupCount() const { return lookups; }
    std::uint64_t directionMissCount() const { return dirMisses; }
    std::uint64_t targetMissCount() const { return tgtMisses; }
    double directionAccuracy() const;
    /** @} */

  private:
    /** Trivial, so the constructor can zero the table with one
     *  memset: the element-wise fill dominated processor set-up. */
    struct BtbEntry
    {
        Addr pc;
        Addr target;
        bool valid;
        std::uint64_t lastUse;
    };

    std::uint32_t bimodalIndex(Addr pc) const;
    std::uint32_t historyIndex(Addr pc) const;
    std::uint32_t l2Index(Addr pc) const;
    std::uint32_t chooserIndex(Addr pc) const;

    Config cfg;
    std::vector<std::uint8_t> bimodal;   ///< 2-bit counters
    std::vector<std::uint16_t> history;  ///< per-PC history registers
    std::vector<std::uint8_t> pattern;   ///< 2-bit counters (level 2)
    std::vector<std::uint8_t> chooser;   ///< 2-bit: high = use 2-level
    std::unique_ptr<BtbEntry[]> btb; ///< btbSets x btbAssoc, row-major
    std::uint64_t useClock = 0;

    std::uint64_t lookups = 0;
    std::uint64_t dirMisses = 0;
    std::uint64_t tgtMisses = 0;
};

} // namespace mcd

#endif // MCDSIM_ARCH_BRANCH_PREDICTOR_HH
