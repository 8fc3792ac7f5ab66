#include "common/record.hh"

#include <bit>
#include <charconv>

#include "common/error.hh"
#include "common/parse.hh"

namespace mcd
{

namespace
{

constexpr std::string_view kF64Prefix = "f64:";

void
appendDec(std::string &out, std::uint64_t value)
{
    char buf[20];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    out.append(buf, res.ptr);
}

void
appendF64(std::string &out, double value)
{
    static constexpr char digits[] = "0123456789abcdef";
    const auto bits = std::bit_cast<std::uint64_t>(value);
    char buf[16];
    for (int i = 0; i < 16; ++i)
        buf[i] = digits[(bits >> (60 - 4 * i)) & 0xf];
    out += kF64Prefix;
    out.append(buf, sizeof(buf));
}

void
appendEscaped(std::string &out, std::string_view text)
{
    for (char c : text) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
}

} // namespace

// ---- RecordWriter -----------------------------------------------------

void
RecordWriter::line(std::string_view text)
{
    out += text;
    out += '\n';
}

void
RecordWriter::u64(std::string_view key, std::uint64_t value)
{
    begin(key);
    appendDec(out, value);
    end();
}

void
RecordWriter::f64(std::string_view key, double value)
{
    begin(key);
    appendF64(out, value);
    end();
}

void
RecordWriter::text(std::string_view key, std::string_view value)
{
    begin(key);
    appendEscaped(out, value);
    end();
}

void
RecordWriter::blob(std::string_view key, std::string_view bytes)
{
    out += key;
    out += '*';
    appendDec(out, bytes.size());
    out += '\n';
    out += bytes;
    out += '\n';
}

void
RecordWriter::begin(std::string_view key)
{
    out += key;
    out += '=';
    firstField = true;
}

void
RecordWriter::separate()
{
    if (!firstField)
        out += ' ';
    firstField = false;
}

void
RecordWriter::fieldU64(std::uint64_t value)
{
    separate();
    appendDec(out, value);
}

void
RecordWriter::fieldF64(double value)
{
    separate();
    appendF64(out, value);
}

void
RecordWriter::fieldText(std::string_view value)
{
    separate();
    appendEscaped(out, value);
}

// ---- RecordReader -----------------------------------------------------

RecordReader::RecordReader(std::string_view t, std::string s,
                           std::string w)
    : input(t), site(std::move(s)), what(std::move(w))
{}

void
RecordReader::fail(const std::string &detail) const
{
    throw ConfigError(site, what + ": " + detail);
}

std::string_view
RecordReader::line()
{
    const auto nl = input.find('\n', pos);
    if (nl == std::string_view::npos)
        fail("unexpected end of input");
    const std::string_view l = input.substr(pos, nl - pos);
    pos = nl + 1;
    return l;
}

void
RecordReader::expectLine(std::string_view expected)
{
    const std::string_view l = line();
    if (l != expected)
        fail("expected '" + std::string(expected) + "', got '" +
             std::string(l) + "'");
}

std::string_view
RecordReader::value(std::string_view key)
{
    const std::string_view l = line();
    if (l.size() <= key.size() || l[key.size()] != '=' ||
        l.substr(0, key.size()) != key)
        fail("expected key '" + std::string(key) + "', got '" +
             std::string(l) + "'");
    return l.substr(key.size() + 1);
}

std::uint64_t
RecordReader::u64(std::string_view key, std::uint64_t max)
{
    return parseU64(value(key), key, max);
}

double
RecordReader::f64(std::string_view key)
{
    return parseF64(value(key), key);
}

std::string
RecordReader::text(std::string_view key)
{
    return parseText(value(key), key);
}

std::string_view
RecordReader::blob(std::string_view key)
{
    const std::string_view l = line();
    if (l.size() <= key.size() || l[key.size()] != '*' ||
        l.substr(0, key.size()) != key)
        fail("expected blob '" + std::string(key) + "', got '" +
             std::string(l) + "'");
    const std::uint64_t len =
        parseU64(l.substr(key.size() + 1), key, input.size() - pos);
    if (pos + len == input.size() || input[pos + len] != '\n')
        fail("blob '" + std::string(key) + "' missing terminator");
    const std::string_view bytes = input.substr(pos, len);
    pos += len + 1;
    return bytes;
}

void
RecordReader::expectEnd() const
{
    if (pos != input.size())
        fail("trailing bytes after end marker");
}

std::vector<std::string_view>
RecordReader::fields(std::string_view v, std::size_t maxFields) const
{
    std::vector<std::string_view> out;
    if (v.empty())
        return out;
    std::size_t start = 0;
    while (true) {
        const auto sp = out.size() + 1 == maxFields
                            ? std::string_view::npos
                            : v.find(' ', start);
        const std::string_view f = v.substr(start, sp - start);
        if (f.empty())
            fail("empty field in '" + std::string(v) + "'");
        out.push_back(f);
        if (sp == std::string_view::npos)
            return out;
        start = sp + 1;
    }
}

std::uint64_t
RecordReader::parseU64(std::string_view token, std::string_view key,
                       std::uint64_t max) const
{
    if (token.size() > 1 && token[0] == '0')
        fail("bad integer for '" + std::string(key) + "': '" +
             std::string(token) + "'");
    try {
        return parseUint(token, site, max);
    } catch (const ConfigError &e) {
        fail("bad integer for '" + std::string(key) + "': " + e.context());
    }
}

double
RecordReader::parseF64(std::string_view token, std::string_view key) const
{
    bool ok = token.size() == kF64Prefix.size() + 16 &&
              token.substr(0, kF64Prefix.size()) == kF64Prefix;
    std::uint64_t bits = 0;
    for (std::size_t i = kF64Prefix.size(); ok && i < token.size(); ++i) {
        const char c = token[i];
        if (c >= '0' && c <= '9')
            bits = bits << 4 | static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            bits = bits << 4 | static_cast<std::uint64_t>(c - 'a' + 10);
        else
            ok = false;
    }
    if (!ok)
        fail("bad f64 for '" + std::string(key) + "': '" +
             std::string(token) + "'");
    return std::bit_cast<double>(bits);
}

std::string
RecordReader::parseText(std::string_view token, std::string_view key) const
{
    std::string out;
    out.reserve(token.size());
    for (std::size_t i = 0; i < token.size(); ++i) {
        if (token[i] != '\\') {
            out += token[i];
            continue;
        }
        const char next = ++i < token.size() ? token[i] : '\0';
        if (next == '\\')
            out += '\\';
        else if (next == 'n')
            out += '\n';
        else
            fail("bad escape in '" + std::string(key) + "': '" +
                 std::string(token) + "'");
    }
    return out;
}

} // namespace mcd
