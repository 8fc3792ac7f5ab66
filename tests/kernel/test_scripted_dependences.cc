/**
 * @file
 * Pins for the corner cases of operand readiness in issue select: a
 * scripted instruction stream whose register dependences hit each of
 * them on purpose, run through the whole processor, with the SHA-256
 * of its serialized result pinned.
 *
 * The stream covers:
 *  - both operands of one instruction on the same producer;
 *  - INT -> LS, LS -> FP and FP -> LS producers, which pay the
 *    cross-domain penalty;
 *  - producers far enough back that they issued before their consumer
 *    dispatched;
 *  - a distance equal to the completion table's capacity (1024);
 *  - distances in [capacity - robSize, capacity) for a ROB of 80 and
 *    one of 160, whose completion-table slot may be recycled while the
 *    consumer waits;
 *  - distances reaching past the start of the stream.
 *
 * Loads alternate between a small, cache-resident footprint and a
 * streaming one that misses, so the MSHR limit also refuses loads.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <utility>

#include "core/mcd_processor.hh"
#include "core/mcdsim.hh"

namespace mcd
{
namespace
{

constexpr std::uint64_t kScriptLength = 20000;

/** One step of the 16-instruction motif: class and two distances. */
struct Step
{
    InstClass cls;
    std::uint16_t dist0;
    std::uint16_t dist1;
};

constexpr Step kMotif[16] = {
    {InstClass::IntAlu, 1, 0},
    {InstClass::IntAlu, 1, 1},    // both operands on one producer
    {InstClass::Load, 1, 0},      // INT -> LS
    {InstClass::FpAdd, 1, 0},     // LS -> FP
    {InstClass::FpMul, 1, 2},
    {InstClass::Store, 2, 1},     // FP -> LS data
    {InstClass::IntMul, 60, 0},   // usually issued before dispatch
    {InstClass::Branch, 1, 0},
    {InstClass::IntAlu, 1024, 0}, // distance = table capacity
    {InstClass::Load, 944, 3},    // capacity - 80
    {InstClass::IntAlu, 1023, 864}, // capacity - 1, capacity - 160
    {InstClass::FpAdd, 900, 1},
    {InstClass::IntDiv, 1, 5},
    {InstClass::Load, 1, 0},
    {InstClass::FpDiv, 2, 2},     // both operands on one FP producer
    {InstClass::IntAlu, 0, 0},
};

/** The scripted stream: kMotif repeated, kScriptLength instructions. */
class ScriptedSource : public WorkloadSource
{
  public:
    bool
    next(TraceInst &out) override
    {
        if (index == kScriptLength)
            return false;
        const std::uint64_t i = index++;
        const Step &s = kMotif[i % 16];
        out = TraceInst{};
        out.cls = s.cls;
        out.pc = 0x400000 + (i % 2048) * 4;
        out.srcDist[0] = s.dist0;
        out.srcDist[1] = s.dist1;
        if (isMem(s.cls)) {
            // Every other motif streams through 8 MiB (misses); the
            // rest stay inside 4 KiB (hits).
            out.addr = (i / 16) % 2 == 0
                           ? 0x10000000 + (i * 64 * 17) % (8u << 20)
                           : 0x20000000 + (i * 8) % 4096;
        }
        if (s.cls == InstClass::Branch) {
            out.taken = (i / 16) % 3 != 0;
            out.target = out.pc + 64;
        }
        return true;
    }

    void reset() override { index = 0; }
    std::uint64_t totalInstructions() const override { return kScriptLength; }
    std::string name() const override { return "scripted"; }

  private:
    std::uint64_t index = 0;
};

/** The scripted stream run to completion: its serialized result and
 *  the edges that ran as parked-domain replays. */
struct ScriptedRun
{
    std::string bytes;
    std::uint64_t replayed;
};

ScriptedRun
runScripted(const SimConfig &cfg)
{
    ScriptedSource src;
    McdProcessor proc(cfg, src);
    std::string bytes = serializeResult(proc.run());
    return {std::move(bytes), proc.replayedEdgeCount()};
}

/** The pinned configurations: ROB 80, ROB 160, and the 5-domain
 *  partition with ROB 80. */
std::array<SimConfig, 3>
scriptedConfigs()
{
    SimConfig rob80;
    rob80.seed = 1;
    SimConfig rob160 = rob80;
    rob160.robSize = 160;
    SimConfig five = rob80;
    five.fiveDomainPartition = true;
    return {rob80, rob160, five};
}

// Captured on the polling issue select; producer wakeup keeps them.
TEST(KernelPins, ScriptedDependences)
{
    constexpr const char *kDigests[] = {
        "ad48821a4075eb04675149f86913852f5be43f8cb6fe905166906fd3dd09e804",
        "b0c811c72d4cc793038b4d56b70749a3f35f23a70fb6bf2606a78a21c6cc6d10",
        "5ea4b4384a2bf1423de64690c0842bb1463eb3ec513728c897397de4130eed63",
    };
    const auto configs = scriptedConfigs();
    for (std::size_t i = 0; i < configs.size(); ++i)
        EXPECT_EQ(sha256Hex(runScripted(configs[i]).bytes), kDigests[i])
            << "config " << i;
}

// The INT -> LS, LS -> FP and FP -> LS producers wake entries of
// parked clusters: the parked run must read the bytes of the per-edge
// path, which a budget that never trips selects.
TEST(ParkedDomains, ScriptedStreamMatchesPerEdgeDispatch)
{
    for (const SimConfig &cfg : scriptedConfigs()) {
        const ScriptedRun parked = runScripted(cfg);
        SimConfig per_edge_cfg = cfg;
        per_edge_cfg.eventBudget = UINT64_MAX;
        const ScriptedRun per_edge = runScripted(per_edge_cfg);
        EXPECT_GT(parked.replayed, 0u) << "ROB " << cfg.robSize;
        EXPECT_EQ(per_edge.replayed, 0u);
        EXPECT_EQ(parked.bytes, per_edge.bytes)
            << "ROB " << cfg.robSize
            << (cfg.fiveDomainPartition ? ", 5 domains" : ", 4 domains");
    }
}

} // namespace
} // namespace mcd
