/**
 * @file
 * The line-oriented record format every on-disk text of mcdsim is
 * built on: the canonical RunSpec text, serialized results, run-cache
 * entry envelopes and shard manifests.
 *
 * A record is a sequence of newline-terminated lines, each one of:
 *
 *   <raw text>               a tag or marker line ("end")
 *   key=<u64>                decimal, no sign, no leading zero
 *   key=f64:<16 hex>         the IEEE-754 bit pattern, lowercase hex
 *   key=<escaped text>       '\' -> "\\", newline -> "\n"
 *   key*<len>\n<bytes>\n     a length-prefixed raw blob
 *   key=<f> <f> ...          space-separated fields of the forms above
 *
 * Doubles never go through float formatting and blobs are never
 * escaped, so a record reads back bit for bit. RecordReader is strict:
 * it accepts only the exact bytes RecordWriter produces, so a reader
 * that returns a value guarantees that writing it again gives the same
 * bytes. Every mismatch throws ConfigError at the caller's site.
 */

#ifndef MCDSIM_COMMON_RECORD_HH
#define MCDSIM_COMMON_RECORD_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mcd
{

/** Appends record lines to a growing buffer. */
class RecordWriter
{
  public:
    /** A raw line: @p text, then a newline. */
    void line(std::string_view text);

    /** `key=<decimal>`. */
    void u64(std::string_view key, std::uint64_t value);

    /** `key=f64:<16 lowercase hex digits>`. */
    void f64(std::string_view key, double value);

    /** `key=<text>` with '\' and newline escaped. */
    void text(std::string_view key, std::string_view value);

    /** `key*<len>`, newline, the raw bytes, newline. */
    void blob(std::string_view key, std::string_view bytes);

    /**
     * @{ A line of space-separated fields: begin(key) writes `key=`,
     * each field*() call appends one field (a space before all but the
     * first), and end() terminates the line.
     */
    void begin(std::string_view key);
    void fieldU64(std::uint64_t value);
    void fieldF64(double value);
    void fieldText(std::string_view value);
    void end() { out += '\n'; }
    /** @} */

    /** The record so far; the writer is left empty. */
    std::string take() { return std::move(out); }

  private:
    void separate();

    std::string out;
    bool firstField = true;
};

/**
 * Reads a record written by RecordWriter, front to back. Views it
 * returns point into the text, which must outlive the reader.
 */
class RecordReader
{
  public:
    /**
     * Errors throw ConfigError at @p site with context
     * "<what>: <detail>", e.g. site "result-io" and what "malformed
     * result entry".
     */
    RecordReader(std::string_view text, std::string site,
                 std::string what);

    /** The next line, which must be exactly @p expected. */
    void expectLine(std::string_view expected);

    /** The value of the next line, which must be `key=<value>`. */
    std::string_view value(std::string_view key);

    /** @{ The next line as `key=<form>`, parsed strictly. */
    std::uint64_t
    u64(std::string_view key,
        std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
    double f64(std::string_view key);
    std::string text(std::string_view key);
    /** @} */

    /** The next `key*<len>` blob's bytes. */
    std::string_view blob(std::string_view key);

    /** Throws unless every byte has been read. */
    void expectEnd() const;

    /**
     * Split a field line's value at single spaces. With @p maxFields
     * nonzero, the last field runs to the end of the line (spaces
     * included) and at most @p maxFields fields come back. An empty
     * value has no fields; an empty field is an error.
     */
    std::vector<std::string_view> fields(std::string_view value,
                                         std::size_t maxFields = 0) const;

    /** @{ Parse one field; @p key names it in errors. */
    std::uint64_t
    parseU64(std::string_view token, std::string_view key,
             std::uint64_t max =
                 std::numeric_limits<std::uint64_t>::max()) const;
    double parseF64(std::string_view token, std::string_view key) const;
    std::string parseText(std::string_view token,
                          std::string_view key) const;
    /** @} */

    /** Throw ConfigError at the reader's site. */
    [[noreturn]] void fail(const std::string &detail) const;

  private:
    /** The next raw line, without its newline. */
    std::string_view line();

    std::string_view input;
    std::size_t pos = 0;
    std::string site;
    std::string what;
};

} // namespace mcd

#endif // MCDSIM_COMMON_RECORD_HH
