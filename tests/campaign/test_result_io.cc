/**
 * @file
 * Byte-exactness tests for the cached-result serialization: a result
 * must survive serialize/deserialize with every derived artifact
 * (CSV, JSON, stats text, traces) bit-identical, and malformed input
 * must be rejected as a structured error, never misparsed.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "campaign/result_io.hh"
#include "common/error.hh"
#include "core/report.hh"
#include "core/run_spec.hh"

namespace mcd
{
namespace
{

/** A run with every artifact populated: stats, trace, time series. */
SimResult
richResult()
{
    RunOptions opts;
    opts.instructions = 30000;
    opts.recordTraces = true;
    opts.collectStats = true;
    opts.trace.enabled = true;
    return run(schemeSpec("adpcm_enc", ControllerKind::Adaptive, opts));
}

TEST(ResultIo, RoundTripIsByteExact)
{
    const SimResult original = richResult();
    const std::string text = serializeResult(original);
    const SimResult restored = deserializeResult(text);

    // The serialized forms must agree byte for byte...
    EXPECT_EQ(serializeResult(restored), text);

    // ...and so must every artifact a harness derives from them.
    EXPECT_EQ(resultCsvRow(restored), resultCsvRow(original));
    EXPECT_EQ(resultJson(restored), resultJson(original));
    EXPECT_EQ(restored.statsText, original.statsText);
    EXPECT_EQ(restored.statsJson, original.statsJson);
    EXPECT_EQ(restored.traceJson, original.traceJson);

    // Time series restore raw state, including the decimation
    // counter and the Welford accumulator over decimated samples.
    EXPECT_EQ(restored.intFreqTrace.counterState(),
              original.intFreqTrace.counterState());
    EXPECT_EQ(restored.intFreqTrace.tickData(),
              original.intFreqTrace.tickData());
    EXPECT_EQ(restored.intQueueTrace.summary().count(),
              original.intQueueTrace.summary().count());
    EXPECT_EQ(restored.intQueueTrace.summary().m2State(),
              original.intQueueTrace.summary().m2State());
}

TEST(ResultIo, DefaultConstructedRoundTrips)
{
    // Empty traces carry +-infinity min/max sentinels; the f64 bit
    // pattern form must carry them through unchanged.
    const SimResult empty;
    const SimResult restored =
        deserializeResult(serializeResult(empty));
    EXPECT_EQ(serializeResult(restored), serializeResult(empty));
    EXPECT_EQ(restored.intFreqTrace.summary().rawMin(),
              empty.intFreqTrace.summary().rawMin());
}

TEST(ResultIo, SpecialFloatBitPatternsSurvive)
{
    SimResult r;
    r.energy = -0.0;
    r.l1dMissRate = std::numeric_limits<double>::infinity();
    r.avgRobOccupancy = std::numeric_limits<double>::quiet_NaN();
    const SimResult back = deserializeResult(serializeResult(r));
    EXPECT_EQ(serializeResult(back), serializeResult(r));
    EXPECT_TRUE(std::signbit(back.energy));
    EXPECT_TRUE(std::isnan(back.avgRobOccupancy));
}

TEST(ResultIo, MalformedInputIsRejected)
{
    const std::string good = serializeResult(SimResult{});
    EXPECT_THROW(deserializeResult(""), ConfigError);
    EXPECT_THROW(deserializeResult("mcdsim-result-v9\n"), ConfigError);
    // Truncation anywhere must throw, not return a partial result.
    EXPECT_THROW(
        deserializeResult(good.substr(0, good.size() / 2)),
        ConfigError);
    // Trailing garbage after the end marker is corruption too.
    EXPECT_THROW(deserializeResult(good + "x\n"), ConfigError);

    // Numbers must be in the one form serializeResult writes, or the
    // round trip breaks: no sign, no whitespace, no leading zero, and
    // exactly 16 lowercase hex digits after f64:.
    const auto edited = [&good](const std::string &from,
                                const std::string &to) {
        const std::size_t at = good.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        std::string text = good;
        return text.replace(at, from.size(), to);
    };
    for (const char *bad :
         {"instructions= 5", "instructions=+5", "instructions= -5",
          "instructions=05"})
        EXPECT_THROW(deserializeResult(edited("instructions=0", bad)),
                     ConfigError)
            << bad;
    for (const char *bad :
         {"energy=f64:0x00000000000001", "energy=f64: 000000000000001",
          "energy=f64:3FF0000000000000"})
        EXPECT_THROW(
            deserializeResult(edited("energy=f64:0000000000000000", bad)),
            ConfigError)
            << bad;
}

} // namespace
} // namespace mcd
