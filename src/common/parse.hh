/**
 * @file
 * Checked integer parsing for command-line flags and on-disk formats.
 */

#ifndef MCDSIM_COMMON_PARSE_HH
#define MCDSIM_COMMON_PARSE_HH

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace mcd
{

/**
 * Parse @p text as a decimal unsigned integer no larger than @p max.
 * Empty input, any non-digit (signs and whitespace included),
 * overflow, and values above @p max throw ConfigError at @p site —
 * the flag or format field being parsed — so no caller ever sees a
 * wrapped or narrowed value.
 */
std::uint64_t parseUint(std::string_view text, const std::string &site,
                        std::uint64_t max =
                            std::numeric_limits<std::uint64_t>::max());

} // namespace mcd

#endif // MCDSIM_COMMON_PARSE_HH
