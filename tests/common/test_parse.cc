/** @file Tests for the checked integer parser. */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/error.hh"
#include "common/parse.hh"

namespace mcd
{
namespace
{

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();

struct ParseCase
{
    const char *text;
    std::uint64_t max;
    bool ok;
    std::uint64_t value; ///< expected when ok
};

class ParseUint : public ::testing::TestWithParam<ParseCase>
{};

TEST_P(ParseUint, AcceptsOnlyInRangeDecimal)
{
    const ParseCase &c = GetParam();
    if (c.ok) {
        EXPECT_EQ(parseUint(c.text, "--flag", c.max), c.value);
        return;
    }
    try {
        parseUint(c.text, "--flag", c.max);
        FAIL() << "accepted '" << c.text << "'";
    } catch (const ConfigError &e) {
        // The error names the flag and echoes the bad text.
        EXPECT_EQ(e.site(), "--flag");
        EXPECT_NE(e.context().find(std::string("'") + c.text + "'"),
                  std::string::npos)
            << e.what();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, ParseUint,
    ::testing::Values(
        ParseCase{"0", kU64Max, true, 0},
        ParseCase{"42", kU64Max, true, 42},
        ParseCase{"007", kU64Max, true, 7},
        ParseCase{"18446744073709551615", kU64Max, true, kU64Max},
        ParseCase{"4294967295", kU32Max, true, kU32Max},
        ParseCase{"4", 4, true, 4},
        ParseCase{"0", 0, true, 0},
        ParseCase{"", kU64Max, false, 0},
        ParseCase{"abc", kU64Max, false, 0},
        ParseCase{"12x", kU64Max, false, 0},
        ParseCase{"-1", kU64Max, false, 0},
        ParseCase{"+1", kU64Max, false, 0},
        ParseCase{" 1", kU64Max, false, 0},
        ParseCase{"1 ", kU64Max, false, 0},
        ParseCase{"1e3", kU64Max, false, 0},
        // uint64_t wrap: 2^64 and 2^64 + 1.
        ParseCase{"18446744073709551616", kU64Max, false, 0},
        ParseCase{"18446744073709551617", kU64Max, false, 0},
        ParseCase{"99999999999999999999999", kU64Max, false, 0},
        // uint32_t narrowing: 2^32 and 2^32 + 1 above a 32-bit cap.
        ParseCase{"4294967296", kU32Max, false, 0},
        ParseCase{"4294967297", kU32Max, false, 0},
        ParseCase{"5", 4, false, 0},
        ParseCase{"1", 0, false, 0}));

} // namespace
} // namespace mcd
