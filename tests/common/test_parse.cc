/** @file Tests for the checked integer parser. */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <ostream>
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
    const char *name; ///< printed as the case's value in test names
    const char *text;
    std::uint64_t max;
    bool ok;
    std::uint64_t value; ///< expected when ok
};

// Without this gtest prints the case as raw bytes, which include the
// string pointers, so the listed test names would change from run to run.
void PrintTo(const ParseCase &c, std::ostream *os) { *os << c.name; }

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
        ParseCase{"accepts_zero", "0", kU64Max, true, 0},
        ParseCase{"accepts_42", "42", kU64Max, true, 42},
        ParseCase{"accepts_leading_zeros", "007", kU64Max, true, 7},
        ParseCase{"accepts_u64_max",
                  "18446744073709551615", kU64Max, true, kU64Max},
        ParseCase{"accepts_u32_max_at_u32_cap",
                  "4294967295", kU32Max, true, kU32Max},
        ParseCase{"accepts_value_at_cap", "4", 4, true, 4},
        ParseCase{"accepts_zero_at_zero_cap", "0", 0, true, 0},
        ParseCase{"rejects_empty", "", kU64Max, false, 0},
        ParseCase{"rejects_letters", "abc", kU64Max, false, 0},
        ParseCase{"rejects_trailing_letter", "12x", kU64Max, false, 0},
        ParseCase{"rejects_minus_sign", "-1", kU64Max, false, 0},
        ParseCase{"rejects_plus_sign", "+1", kU64Max, false, 0},
        ParseCase{"rejects_leading_space", " 1", kU64Max, false, 0},
        ParseCase{"rejects_trailing_space", "1 ", kU64Max, false, 0},
        ParseCase{"rejects_exponent", "1e3", kU64Max, false, 0},
        // uint64_t wrap: 2^64 and 2^64 + 1.
        ParseCase{"rejects_u64_wrap",
                  "18446744073709551616", kU64Max, false, 0},
        ParseCase{"rejects_u64_wrap_plus_one",
                  "18446744073709551617", kU64Max, false, 0},
        ParseCase{"rejects_23_digits",
                  "99999999999999999999999", kU64Max, false, 0},
        // uint32_t narrowing: 2^32 and 2^32 + 1 above a 32-bit cap.
        ParseCase{"rejects_u32_narrowing", "4294967296", kU32Max, false, 0},
        ParseCase{"rejects_u32_narrowing_plus_one",
                  "4294967297", kU32Max, false, 0},
        ParseCase{"rejects_above_cap", "5", 4, false, 0},
        ParseCase{"rejects_above_zero_cap", "1", 0, false, 0}));

} // namespace
} // namespace mcd
