/**
 * @file
 * Byte-exact SimResult serialization for the run cache.
 *
 * A cached run must be indistinguishable from a fresh one: every
 * artifact a harness derives from a SimResult (CSV rows, JSON
 * reports, stats dumps, trace tables) has to come out byte-identical
 * whether the result was computed or loaded. The entry is a record
 * (common/record.hh): doubles as the hex of their IEEE-754 bit
 * pattern, strings as length-prefixed raw blobs — no float
 * formatting, no escaping, no locale anywhere in the round trip.
 *
 * The layout is strictly ordered: the tag line ("mcdsim-result-v1"),
 * a fixed sequence of `key=value` lines and `key*<len>` blobs, and an
 * "end" line. The tag versions the layout; the strict RecordReader
 * rejects anything else — another tag, a non-canonical number, a
 * missing or extra byte — which turns a format change or a corrupt
 * file into a clean cache miss rather than a misparse.
 */

#ifndef MCDSIM_CAMPAIGN_RESULT_IO_HH
#define MCDSIM_CAMPAIGN_RESULT_IO_HH

#include <string>
#include <string_view>

#include "core/metrics.hh"

namespace mcd
{

/** Leading tag line; bump the suffix when the layout changes. */
inline constexpr const char *kResultFormatTag = "mcdsim-result-v1";

/** Render @p r into the versioned byte-exact text form. */
std::string serializeResult(const SimResult &r);

/**
 * Inverse of serializeResult(). Throws ConfigError (site
 * "result-io") on any tag, key, length, or value mismatch —
 * serializeResult(deserializeResult(t)) == t for every valid t.
 */
SimResult deserializeResult(std::string_view text);

} // namespace mcd

#endif // MCDSIM_CAMPAIGN_RESULT_IO_HH
