#include "obs/stats_registry.hh"

#include <cctype>
#include <cstdio>
#include <sstream>
#include <vector>

#include "common/check.hh"

namespace mcd
{
namespace obs
{

namespace
{

/** Deterministic double rendering shared by the text and JSON dumps. */
std::string
formatDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

std::string
formatInt(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** One (subkey, rendered value) pair of a stat's expansion. */
struct Cell
{
    std::string key; ///< empty for scalar stats
    std::string value;
};

/** Expand an entry into its dump cells, in a fixed sub-key order. */
template <typename Variant>
void
expand(const Variant &value, std::vector<Cell> &out)
{
    if (const auto *d = std::get_if<Distribution>(&value)) {
        const SummaryStats &s = d->summary();
        out.push_back({"count", formatInt(s.count())});
        out.push_back({"mean", formatDouble(s.mean())});
        out.push_back({"variance", formatDouble(s.variance())});
        out.push_back({"min", formatDouble(s.min())});
        out.push_back({"max", formatDouble(s.max())});
    } else if (const auto *fi =
                   std::get_if<std::function<std::uint64_t()>>(&value)) {
        out.push_back({"", formatInt((*fi)())});
    } else if (const auto *fd =
                   std::get_if<std::function<double()>>(&value)) {
        out.push_back({"", formatDouble((*fd)())});
    }
}

bool
validName(const std::string &name)
{
    if (name.empty() || name.front() == '.' || name.back() == '.')
        return false;
    for (const char c : name) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
              c == '_' || c == '-')) {
            return false;
        }
    }
    return true;
}

} // namespace

StatsRegistry::Entry &
StatsRegistry::insert(const std::string &name, std::string desc)
{
    MCDSIM_CHECK(validName(name), "bad stat name '%s' (want a dotted "
                 "path of [a-zA-Z0-9_.-])", name.c_str());
    auto [it, inserted] = entries.try_emplace(name);
    MCDSIM_CHECK(inserted, "stat '%s' registered twice", name.c_str());
    it->second.desc = std::move(desc);
    return it->second;
}

Distribution &
StatsRegistry::addDistribution(const std::string &name, std::string desc)
{
    return insert(name, std::move(desc)).value.emplace<Distribution>();
}

void
StatsRegistry::addIntCallback(const std::string &name, std::string desc,
                              std::function<std::uint64_t()> fn)
{
    MCDSIM_CHECK(fn != nullptr, "stat '%s': null callback", name.c_str());
    insert(name, std::move(desc))
        .value.emplace<std::function<std::uint64_t()>>(std::move(fn));
}

void
StatsRegistry::addCallback(const std::string &name, std::string desc,
                           std::function<double()> fn)
{
    MCDSIM_CHECK(fn != nullptr, "stat '%s': null callback", name.c_str());
    insert(name, std::move(desc))
        .value.emplace<std::function<double()>>(std::move(fn));
}

bool
StatsRegistry::contains(const std::string &name) const
{
    return entries.find(name) != entries.end();
}

std::string
StatsRegistry::renderText() const
{
    std::ostringstream os;
    for (const auto &[name, entry] : entries) {
        std::vector<Cell> cells;
        expand(entry.value, cells);
        for (const auto &cell : cells) {
            os << name;
            if (!cell.key.empty())
                os << '.' << cell.key;
            os << ' ' << cell.value;
            if (!entry.desc.empty())
                os << " # " << entry.desc;
            os << '\n';
        }
    }
    return os.str();
}

std::string
StatsRegistry::renderJson() const
{
    std::ostringstream os;
    os << "{\n";
    bool first = true;
    for (const auto &[name, entry] : entries) {
        std::vector<Cell> cells;
        expand(entry.value, cells);
        if (!first)
            os << ",\n";
        first = false;
        os << "  \"" << name << "\": ";
        if (cells.size() == 1 && cells[0].key.empty()) {
            os << cells[0].value;
        } else {
            os << '{';
            for (std::size_t i = 0; i < cells.size(); ++i) {
                if (i)
                    os << ", ";
                os << '"' << cells[i].key << "\": " << cells[i].value;
            }
            os << '}';
        }
    }
    os << "\n}\n";
    return os.str();
}

} // namespace obs
} // namespace mcd
