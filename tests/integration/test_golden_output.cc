/**
 * @file
 * Golden-output pins: the SHA-256 of serializeResult() for a fixed
 * grid of short runs, captured once and compared on every build.
 *
 * The determinism suite proves that one build repeats itself; these
 * pins prove that a change to the simulator kernel (issue select, the
 * edge loop, the event queue, the RNG) leaves every run's bytes
 * exactly as they were. The grid covers the four schemes of the
 * paper's comparison on an INT, a memory-bound, an FP and a codec
 * profile, plus the synchronous baseline, the five-domain partition,
 * a 1-MSHR small-queue machine, a fault plan, and a run with the
 * stats dump and Chrome trace (clock-edge events included) enabled.
 *
 * A deliberate semantic change bumps kRunSpecSchemaVersion and
 * recaptures the digests: each failure message prints the new one.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "core/mcdsim.hh"

namespace mcd
{
namespace
{

/** Pinned serializeResult() digests, by case name. */
const std::map<std::string, std::string> kPinned = {
    {"mcf_mcd_baseline",
     "8d36d78a114c6a543dedff54cf89f1ba56aa4cf100c7f06ea5db92dd2ca5d819"},
    {"mcf_adaptive",
     "bc2e67daf35d6b88842593731166c9515524a71b7c2ce567a6b0fd03049f7eb0"},
    {"mcf_pid_fixed_interval",
     "6f83cd4f88266b1722d40f795a75815c5b35abf220d8977170f143b1666b0ccd"},
    {"mcf_attack_decay",
     "d806c26a0d3fca81d2cab04c1d644bf439222c9125a3484d3eb7df0a9ed4bd74"},
    {"gcc_mcd_baseline",
     "dd0747a06b0aba123588b5e8f2bd7c9814dc95e548116f4c6b86aa5e24425298"},
    {"gcc_adaptive",
     "fcc272b49f7cd3b51a1ebd5264a614c8e8c940d1969a9d484e8dec9531d84309"},
    {"gcc_pid_fixed_interval",
     "b758f8750af4021cb55b8f009a051053daa39005c6d17f3ffbcd75f3712bf589"},
    {"gcc_attack_decay",
     "e950934781cab3d597437bd70e7d9ea358bb5860f21265c8f75127194bda0eca"},
    {"swim_mcd_baseline",
     "92f2add8a653c90c080d72444682fadc83a2aa2f2f1504d1a5f1f96b02410a15"},
    {"swim_adaptive",
     "5dea012587fd09e52abe130a92024151735f63c6fecebc23956856f0070134c5"},
    {"swim_pid_fixed_interval",
     "38f5f471b01f25785e9c4426c57e918801f0b339592fbcb8c8f2c1c594aa49cd"},
    {"swim_attack_decay",
     "1d0c2235462d60c0c84c986868abc344f6a6d3c70ebe8a04fd565705bd023829"},
    {"adpcm_enc_mcd_baseline",
     "892ff7e16ba0d17135205f0734f5bd41641f604e31db8c26997ad8a97a5adc4e"},
    {"adpcm_enc_adaptive",
     "f3cee8c8e00497a0c9ade946f5ff89ce74fd41dd5e8c6201511e742c912261fd"},
    {"adpcm_enc_pid_fixed_interval",
     "6c89c4a14fbe390114e6c6266f0f2597f295ba676da1c603a44749f2eabb3fe7"},
    {"adpcm_enc_attack_decay",
     "6a6945273459d6d5d7395e19abc7eec234ab9d2cae1f5a204dc2c32d8368c8a1"},
    {"gcc_sync_baseline",
     "72c3060fb8b1f499f8a7bb317bbe23755bce687771e9eae01ed4de26d511b7f9"},
    {"mpeg2_dec_five_domain_adaptive",
     "ff92f8eb240519f711241a06ecfbb50efbafd1bcc18a54f6c8faf1d72c508fc8"},
    {"mcf_one_mshr_small_queues_adaptive",
     "bcc658b587566d4ce606d23b00369ef63ae91b0d2a46db2fa32160d44ccb1690"},
    {"gcc_sensor_noise_adaptive",
     "fdbe7fe6e1b35d12859fffdcbf53aa7ae105753133da1b1ed1284fdf6b38e879"},
    {"swim_stats_and_trace_adaptive",
     "ee51a07376c66e1d8839829adc1864fd7ade6918705d4cdba087c5435dde4a66"},
};

struct GoldenCase
{
    std::string name;
    RunSpec spec;
};

/** "<benchmark>_<scheme label>" with non-alphanumerics as '_'. */
std::string
gridName(const RunSpec &spec)
{
    std::string n = spec.benchmark + "_" + runLabel(spec);
    for (char &ch : n) {
        if (!std::isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    }
    return n;
}

std::vector<GoldenCase>
goldenCases()
{
    RunOptions base;
    base.instructions = 20000;
    base.seed = 1;
    base.recordTraces = true;

    std::vector<GoldenCase> cases;
    for (const char *bench : {"mcf", "gcc", "swim", "adpcm_enc"}) {
        std::vector<RunSpec> specs = {mcdBaselineSpec(bench, base)};
        for (ControllerKind kind :
             {ControllerKind::Adaptive, ControllerKind::Pid,
              ControllerKind::AttackDecay})
            specs.push_back(schemeSpec(bench, kind, base));
        for (RunSpec &spec : specs)
            cases.push_back({gridName(spec), std::move(spec)});
    }

    cases.push_back({"gcc_sync_baseline", syncBaselineSpec("gcc", base)});

    RunOptions five = base;
    five.config.fiveDomainPartition = true;
    cases.push_back({"mpeg2_dec_five_domain_adaptive",
                     schemeSpec("mpeg2_dec", ControllerKind::Adaptive, five)});

    RunOptions tight = base;
    tight.config.mshrCount = 1;
    tight.config.intQueueSize = 6;
    tight.config.fpQueueSize = 4;
    tight.config.lsQueueSize = 4;
    cases.push_back({"mcf_one_mshr_small_queues_adaptive",
                     schemeSpec("mcf", ControllerKind::Adaptive, tight)});

    RunOptions noisy = base;
    noisy.config.faults =
        FaultPlan::parseShared("sensor-noise:amp=2,rate=0.5");
    cases.push_back({"gcc_sensor_noise_adaptive",
                     schemeSpec("gcc", ControllerKind::Adaptive, noisy)});

    RunOptions observed = base;
    observed.collectStats = true;
    observed.trace.enabled = true;
    observed.trace.clockEdges = true;
    cases.push_back({"swim_stats_and_trace_adaptive",
                     schemeSpec("swim", ControllerKind::Adaptive, observed)});
    return cases;
}

class GoldenOutput : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(GoldenOutput, MatchesPinnedDigest)
{
    const GoldenCase c = goldenCases().at(GetParam());
    const auto pinned = kPinned.find(c.name);
    ASSERT_NE(pinned, kPinned.end()) << c.name << ": no pinned digest";
    const std::string digest = sha256Hex(serializeResult(run(c.spec)));
    EXPECT_EQ(digest, pinned->second)
        << c.name << ": serialized result changed; new digest " << digest;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GoldenOutput,
    ::testing::Range<std::size_t>(0, goldenCases().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return goldenCases().at(info.param).name;
    });

// Kernel dispatch pins: the event count of a finished run, and the
// exact text (tick included) of an event-budget trip, fix the order
// and number of clock edges and sampler ticks independently of the
// result bytes above.

RunSpec
mcfAdaptive()
{
    RunOptions opts;
    opts.instructions = 20000;
    opts.seed = 1;
    return schemeSpec("mcf", ControllerKind::Adaptive, opts);
}

RunSpec
fiveDomainAdaptive()
{
    RunOptions opts;
    opts.instructions = 20000;
    opts.seed = 1;
    opts.config.fiveDomainPartition = true;
    return schemeSpec("mpeg2_dec", ControllerKind::Adaptive, opts);
}

std::string
budgetTripText(RunSpec spec, std::uint64_t budget)
{
    spec.options.config.eventBudget = budget;
    try {
        run(spec);
    } catch (const SimError &e) {
        return e.what();
    }
    return "no trip";
}

TEST(KernelPins, EventsProcessedMcfAdaptive)
{
    EXPECT_EQ(run(mcfAdaptive()).eventsProcessed, 646103u);
}

TEST(KernelPins, EventsProcessedFiveDomain)
{
    EXPECT_EQ(run(fiveDomainAdaptive()).eventsProcessed, 174813u);
}

TEST(KernelPins, EventBudgetTripMcfAdaptive)
{
    EXPECT_EQ(budgetTripText(mcfAdaptive(), 123457),
              "sim error at event-budget: run exceeded its event budget "
              "of 123457 events at tick 30883593428");
}

TEST(KernelPins, EventBudgetTripFiveDomain)
{
    EXPECT_EQ(budgetTripText(fiveDomainAdaptive(), 54321),
              "sim error at event-budget: run exceeded its event budget "
              "of 54321 events at tick 10616999554");
}

} // namespace
} // namespace mcd
