#include "common/parse.hh"

#include "common/error.hh"

namespace mcd
{

std::uint64_t
parseUint(std::string_view text, const std::string &site,
          std::uint64_t max)
{
    auto fail = [&](const std::string &what) {
        throw ConfigError(site, what + ", got '" + std::string(text) +
                                    "'");
    };
    if (text.empty())
        fail("expected an unsigned integer");
    std::uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            fail("expected an unsigned integer");
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (digit > max || value > (max - digit) / 10)
            fail("expected an integer no larger than " +
                 std::to_string(max));
        value = value * 10 + digit;
    }
    return value;
}

} // namespace mcd
