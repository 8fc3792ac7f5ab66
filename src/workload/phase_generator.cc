#include "workload/phase_generator.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"
#include "common/error.hh"

namespace mcd
{

PhaseTraceGenerator::PhaseTraceGenerator(std::string trace_name,
                                         std::vector<PhaseSpec> phase_list,
                                         std::uint64_t total,
                                         std::uint64_t generator_seed,
                                         bool cycle)
    : traceName(std::move(trace_name)), specs(std::move(phase_list)),
      totalInsts(total), seed(generator_seed), rng(generator_seed)
{
    if (specs.empty())
        configError("phase-generator", "'%s': no phases", traceName.c_str());
    if (total == 0)
        configError("phase-generator", "'%s': zero instructions",
                    traceName.c_str());

    originalPhaseCount = specs.size();
    if (cycle) {
        // Repeat the phase list, using weights as per-iteration
        // instruction counts scaled so one pass covers ~1/8 of the
        // total (at least 1k instructions per phase).
        double weight_sum = 0.0;
        for (const auto &p : specs)
            weight_sum += p.weight;
        std::vector<PhaseSpec> expanded;
        std::vector<std::uint64_t> counts;
        std::uint64_t emitted = 0;
        const double pass_insts =
            std::max<double>(static_cast<double>(total) / 8.0,
                             1000.0 * static_cast<double>(specs.size()));
        while (emitted < total) {
            for (const auto &p : specs) {
                auto cnt = static_cast<std::uint64_t>(
                    pass_insts * p.weight / weight_sum);
                cnt = std::max<std::uint64_t>(cnt, 1000);
                if (emitted + cnt > total)
                    cnt = total - emitted;
                if (cnt == 0)
                    break;
                expanded.push_back(p);
                counts.push_back(cnt);
                emitted += cnt;
                if (emitted >= total)
                    break;
            }
        }
        specs = std::move(expanded);
        phaseCounts = std::move(counts);
    } else {
        double weight_sum = 0.0;
        for (const auto &p : specs)
            weight_sum += p.weight;
        MCDSIM_CHECK(weight_sum > 0.0, "non-positive phase weights");
        phaseCounts.resize(specs.size());
        std::uint64_t assigned = 0;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            phaseCounts[i] = static_cast<std::uint64_t>(
                static_cast<double>(total) * specs[i].weight / weight_sum);
            assigned += phaseCounts[i];
        }
        // Give rounding slack to the last phase.
        phaseCounts.back() += total - assigned;
    }

    enterPhase(0);
}

void
PhaseTraceGenerator::enterPhase(std::size_t idx)
{
    phaseIdx = idx;
    emittedInPhase = 0;
    if (idx >= specs.size())
        return;

    const PhaseSpec &p = specs[idx];
    // Repeats of the same logical phase (cycle mode) revisit the same
    // code and data and replay the same behaviour, so caches and
    // predictors see genuine reuse across phase recurrences.
    const std::size_t logical = idx % originalPhaseCount;
    rng = Rng(seed).fork(logical + 1);

    // Code and data placement: distinct, page-aligned regions per
    // logical phase so phase changes shift the cache footprint.
    codeBase = 0x400000 + static_cast<Addr>(logical) * 0x100000;
    dataBase = 0x10000000 + static_cast<Addr>(logical) * 0x4000000;
    pc = codeBase;
    seqPtr = 0;

    branches.clear();
    branches.reserve(p.staticBranches);
    const Addr code_span =
        std::max<Addr>(Addr(p.staticBranches) * 64, 1024);
    for (std::uint32_t b = 0; b < p.staticBranches; ++b) {
        StaticBranch sb;
        sb.pc = codeBase + rng.below(code_span) / 4 * 4;
        // Loop-like backward target or forward skip.
        const bool backward = rng.chance(0.6);
        const Addr hop = 4 + rng.below(256) / 4 * 4;
        sb.takenTarget = backward
                             ? (sb.pc > codeBase + hop ? sb.pc - hop
                                                       : codeBase)
                             : sb.pc + hop;
        // Behaviour mix: mostly loop-like branches (learnable by the
        // two-level predictor), some strongly biased ones, and a
        // small data-dependent hard fraction. Lower phase
        // predictability shifts weight from loops to biased/hard.
        const double loop_share =
            std::clamp(2.0 * (p.predictability - 0.5), 0.0, 0.92);
        const double hard_share =
            std::clamp(0.35 * (1.0 - p.predictability), 0.01, 0.20);
        const double u = rng.uniform();
        sb.takenProb = 0.0;
        sb.period = 0;
        sb.count = static_cast<std::uint32_t>(rng.below(32));
        if (u < loop_share) {
            sb.kind = StaticBranch::Kind::Loop;
            sb.period =
                4u + static_cast<std::uint32_t>(rng.below(29)); // 4-32
        } else if (u < loop_share + hard_share) {
            sb.kind = StaticBranch::Kind::Hard;
            sb.takenProb = rng.uniform(0.40, 0.60);
        } else {
            sb.kind = StaticBranch::Kind::Biased;
            const double bias =
                std::clamp(rng.gaussian(p.predictability, 0.03), 0.75,
                           0.995);
            sb.takenProb = rng.chance(0.7) ? bias : 1.0 - bias;
        }
        branches.push_back(sb);
    }
}

double
PhaseTraceGenerator::modulation() const
{
    const PhaseSpec &p = specs[phaseIdx];
    if (p.modShape == ModShape::None || p.modPeriodInsts <= 0.0 ||
        p.modDepth <= 0.0) {
        return 0.0;
    }
    const double phase01 =
        std::fmod(static_cast<double>(emittedInPhase), p.modPeriodInsts) /
        p.modPeriodInsts;
    switch (p.modShape) {
      case ModShape::Sine:
        return p.modDepth * std::sin(2.0 * M_PI * phase01);
      case ModShape::Square:
        return phase01 < 0.5 ? p.modDepth : -p.modDepth;
      case ModShape::None:
        break;
    }
    return 0.0;
}

std::uint16_t
PhaseTraceGenerator::pickDepDist(Rng &r, double mean_dep)
{
    const double mean = std::max(mean_dep, 1.0);
    const double pgeo = 1.0 / mean;
    if (pgeo != depP) {
        depP = pgeo;
        depLog1mP = std::log1p(-pgeo);
    }
    const auto dist = 1 + r.geometric(pgeo, depLog1mP);
    return static_cast<std::uint16_t>(std::min<std::uint64_t>(dist, 64));
}

InstClass
PhaseTraceGenerator::pickClass(Rng &r, double frac_fp, double frac_load)
{
    const PhaseSpec &p = specs[phaseIdx];
    const double u = r.uniform();
    double acc = frac_load;
    if (u < acc)
        return InstClass::Load;
    acc += p.fracStore;
    if (u < acc)
        return InstClass::Store;
    acc += p.fracBranch;
    if (u < acc)
        return InstClass::Branch;
    acc += frac_fp;
    if (u < acc) {
        const double v = r.uniform();
        if (v < p.fracDivOfFp)
            return r.chance(0.3) ? InstClass::FpSqrt : InstClass::FpDiv;
        if (v < p.fracDivOfFp + p.fracMulOfFp)
            return InstClass::FpMul;
        return InstClass::FpAdd;
    }
    const double v = r.uniform();
    if (v < p.fracDivOfInt)
        return InstClass::IntDiv;
    if (v < p.fracDivOfInt + p.fracMulOfInt)
        return InstClass::IntMul;
    return InstClass::IntAlu;
}

Addr
PhaseTraceGenerator::pickDataAddr(Rng &r)
{
    const PhaseSpec &p = specs[phaseIdx];
    const Addr ws = std::max<Addr>(Addr(p.workingSetKb) * 1024, 64);
    if (r.chance(p.seqFraction)) {
        // Streaming access: walks the working set line by line.
        seqPtr = (seqPtr + 8) % ws;
        return dataBase + seqPtr;
    }
    // Pointer-style access with 90/10-like temporal locality: most
    // non-streaming references hit a hot region, the rest scatter
    // over the full working set.
    const Addr hot = std::min<Addr>(std::max<Addr>(
        Addr(p.hotSetKb) * 1024, 64), ws);
    if (r.chance(p.hotFraction))
        return dataBase + (r.below(hot) & ~Addr(7));
    return dataBase + (r.below(ws) & ~Addr(7));
}

std::uint16_t
PhaseTraceGenerator::pickClusteredDep(Rng &r, double mean_dep,
                                      InstClass consumer)
{
    // Compatibility: FP consumers read FP or load results; everything
    // else reads integer or load results. A handful of retries makes
    // cross-cluster dependences rare rather than impossible, matching
    // the dependence locality real register allocation produces.
    const bool want_fp = isFp(consumer);
    for (int attempt = 0; attempt < 6; ++attempt) {
        const std::uint16_t dist = pickDepDist(r, mean_dep);
        if (dist > emittedTotal)
            continue;
        const InstClass prod =
            recentClasses[(emittedTotal - dist) % historySize];
        if (prod == InstClass::Load)
            return dist; // load-use crossing is physical in any cluster
        if (want_fp == isFp(prod) && prod != InstClass::Store &&
            prod != InstClass::Branch) {
            return dist;
        }
    }
    return pickDepDist(r, mean_dep);
}

bool
PhaseTraceGenerator::next(TraceInst &out)
{
    if (emittedTotal >= totalInsts)
        return false;
    while (phaseIdx < specs.size() &&
           emittedInPhase >= phaseCounts[phaseIdx]) {
        enterPhase(phaseIdx + 1);
    }
    if (phaseIdx >= specs.size())
        return false;

    const PhaseSpec &p = specs[phaseIdx];
    const double mod = modulation();
    // Modulation swings the whole demand profile: FP share, available
    // ILP, and memory pressure move together, as they do across the
    // burst structure of real media/scientific inner loops.
    const double frac_fp = std::clamp(p.fracFp * (1.0 + mod), 0.0, 0.85);
    const double mean_dep =
        std::max(1.5, p.meanDepDist * (1.0 - 0.75 * mod));
    const double frac_load =
        std::clamp(p.fracLoad * (1.0 + 0.6 * mod), 0.0, 0.5);

    out = TraceInst{};
    out.cls = pickClass(rng, frac_fp, frac_load);

    if (out.cls == InstClass::Branch && !branches.empty()) {
        auto &sb = branches[rng.below(branches.size())];
        out.pc = sb.pc;
        switch (sb.kind) {
          case StaticBranch::Kind::Loop:
            out.taken = (sb.count % sb.period) != sb.period - 1;
            ++sb.count;
            break;
          case StaticBranch::Kind::Biased:
          case StaticBranch::Kind::Hard:
            out.taken = rng.chance(sb.takenProb);
            break;
        }
        out.target = sb.takenTarget;
        pc = out.taken ? sb.takenTarget : sb.pc + 4;
    } else {
        out.pc = pc;
        pc += 4;
        // Wrap within the phase code region to bound the I-footprint.
        const Addr code_span =
            std::max<Addr>(Addr(p.staticBranches) * 64, 1024);
        if (pc >= codeBase + code_span)
            pc = codeBase;
    }

    if (isMem(out.cls))
        out.addr = pickDataAddr(rng);

    // Register dependences: most instructions read one prior result;
    // some read two. Branches test freshly computed values, so their
    // dependence distance is short regardless of the phase ILP.
    if (out.cls == InstClass::Branch) {
        static const double log1m_half = std::log1p(-0.5);
        out.srcDist[0] = static_cast<std::uint16_t>(
            std::min<std::uint64_t>(1 + rng.geometric(0.5, log1m_half), 8));
    } else {
        if (rng.chance(0.85))
            out.srcDist[0] = pickClusteredDep(rng, mean_dep, out.cls);
        if (rng.chance(0.25))
            out.srcDist[1] = pickClusteredDep(rng, mean_dep, out.cls);
    }

    recentClasses[emittedTotal % historySize] = out.cls;
    ++emittedInPhase;
    ++emittedTotal;
    return true;
}

void
PhaseTraceGenerator::reset()
{
    emittedTotal = 0;
    for (auto &c : recentClasses)
        c = InstClass::IntAlu;
    enterPhase(0);
}

} // namespace mcd
