#include "arch/branch_predictor.hh"

#include "common/error.hh"

namespace mcd
{

namespace
{

/** Saturating 2-bit counter update. */
void
bump(std::uint8_t &ctr, bool up)
{
    if (up) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
}

bool
isPow2(std::uint32_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace

BranchPredictor::BranchPredictor(const Config &config)
    : cfg(config)
{
    if (!isPow2(cfg.bimodalEntries) || !isPow2(cfg.l1Entries) ||
        !isPow2(cfg.l2Entries) || !isPow2(cfg.chooserEntries) ||
        !isPow2(cfg.btbSets)) {
        configError("branch-predictor",
                    "branch predictor tables must be powers of two");
    }
    bimodal.assign(cfg.bimodalEntries, 2); // weakly taken
    history.assign(cfg.l1Entries, 0);
    pattern.assign(cfg.l2Entries, 2);
    chooser.assign(cfg.chooserEntries, 2);
    btb.assign(std::size_t(cfg.btbSets) * cfg.btbAssoc, BtbEntry{});
}

std::uint32_t
BranchPredictor::bimodalIndex(Addr pc) const
{
    return static_cast<std::uint32_t>(pc >> 2) & (cfg.bimodalEntries - 1);
}

std::uint32_t
BranchPredictor::historyIndex(Addr pc) const
{
    return static_cast<std::uint32_t>(pc >> 2) & (cfg.l1Entries - 1);
}

std::uint32_t
BranchPredictor::l2Index(Addr pc) const
{
    const std::uint16_t hist = history[historyIndex(pc)];
    const auto mask = static_cast<std::uint16_t>((1u << cfg.historyBits) - 1);
    // XOR-fold the PC into the history (gshare-style level 2).
    const std::uint32_t idx =
        (static_cast<std::uint32_t>(hist & mask) ^
         static_cast<std::uint32_t>(pc >> 2));
    return idx & (cfg.l2Entries - 1);
}

std::uint32_t
BranchPredictor::chooserIndex(Addr pc) const
{
    return static_cast<std::uint32_t>(pc >> 2) & (cfg.chooserEntries - 1);
}

BranchPrediction
BranchPredictor::predict(Addr pc) const
{
    const bool bim = bimodal[bimodalIndex(pc)] >= 2;
    const bool two = pattern[l2Index(pc)] >= 2;
    const bool use_two = chooser[chooserIndex(pc)] >= 2;

    BranchPrediction out;
    out.taken = use_two ? two : bim;

    const std::size_t set =
        (static_cast<std::size_t>(pc >> 2) & (cfg.btbSets - 1)) *
        cfg.btbAssoc;
    for (std::uint32_t w = 0; w < cfg.btbAssoc; ++w) {
        const BtbEntry &e = btb[set + w];
        if (e.valid && e.pc == pc) {
            out.btbHit = true;
            out.target = e.target;
            break;
        }
    }
    return out;
}

void
BranchPredictor::update(Addr pc, bool taken, Addr target)
{
    const bool bim = bimodal[bimodalIndex(pc)] >= 2;
    const bool two = pattern[l2Index(pc)] >= 2;

    // Chooser trains toward the component that was right when they
    // disagree.
    if (bim != two)
        bump(chooser[chooserIndex(pc)], two == taken);

    bump(bimodal[bimodalIndex(pc)], taken);
    bump(pattern[l2Index(pc)], taken);

    auto &hist = history[historyIndex(pc)];
    hist = static_cast<std::uint16_t>(
        ((hist << 1) | (taken ? 1 : 0)) & ((1u << cfg.historyBits) - 1));

    if (taken) {
        ++useClock;
        const std::size_t set =
            (static_cast<std::size_t>(pc >> 2) & (cfg.btbSets - 1)) *
            cfg.btbAssoc;
        std::size_t victim = set;
        std::uint64_t oldest = ~std::uint64_t(0);
        for (std::uint32_t w = 0; w < cfg.btbAssoc; ++w) {
            BtbEntry &e = btb[set + w];
            if (e.valid && e.pc == pc) {
                e.target = target;
                e.lastUse = useClock;
                return;
            }
            if (!e.valid) {
                victim = set + w;
                oldest = 0;
            } else if (e.lastUse < oldest) {
                oldest = e.lastUse;
                victim = set + w;
            }
        }
        btb[victim] = BtbEntry{pc, target, true, useClock};
    }
}

void
BranchPredictor::recordOutcome(bool direction_correct, bool target_correct)
{
    ++lookups;
    if (!direction_correct)
        ++dirMisses;
    if (!target_correct)
        ++tgtMisses;
}

double
BranchPredictor::directionAccuracy() const
{
    return lookups ? 1.0 - static_cast<double>(dirMisses) /
                               static_cast<double>(lookups)
                   : 1.0;
}

} // namespace mcd
