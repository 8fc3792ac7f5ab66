#include "fault/fault_plan.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "common/error.hh"

namespace mcd
{

namespace
{

struct SiteInfo
{
    const char *name;
    FaultSite site;
};

constexpr SiteInfo siteTable[numFaultSites] = {
    {"sensor-noise", FaultSite::SensorNoise},
    {"drop-update", FaultSite::DropUpdate},
    {"delay-update", FaultSite::DelayUpdate},
    {"clamp-vf", FaultSite::ClampVf},
    {"task-throw", FaultSite::TaskThrow},
};

std::string
trim(const std::string &s)
{
    auto b = s.find_first_not_of(" \t\n\r");
    if (b == std::string::npos)
        return "";
    auto e = s.find_last_not_of(" \t\n\r");
    return s.substr(b, e - b + 1);
}

double
parseDouble(const std::string &key, const std::string &val)
{
    double out = 0.0;
    auto [ptr, ec] =
        std::from_chars(val.data(), val.data() + val.size(), out);
    if (ec != std::errc{} || ptr != val.data() + val.size())
        throw ConfigError("fault-spec", "key '" + key +
                                            "' expects a number, got '" +
                                            val + "'");
    return out;
}

std::uint64_t
parseUint(const std::string &key, const std::string &val)
{
    std::uint64_t out = 0;
    auto [ptr, ec] =
        std::from_chars(val.data(), val.data() + val.size(), out);
    if (ec != std::errc{} || ptr != val.data() + val.size())
        throw ConfigError("fault-spec",
                          "key '" + key +
                              "' expects a non-negative integer, got '" +
                              val + "'");
    return out;
}

int
parseDomain(const std::string &val)
{
    if (val == "all" || val == "*")
        return -1;
    if (val == "int")
        return 0;
    if (val == "fp")
        return 1;
    if (val == "ls")
        return 2;
    throw ConfigError("fault-spec",
                      "key 'dom' expects int|fp|ls|all, got '" + val + "'");
}

const char *
domainName(int dom)
{
    switch (dom) {
      case 0:
        return "int";
      case 1:
        return "fp";
      case 2:
        return "ls";
      default:
        return "all";
    }
}

/** Format a double the way canonical() wants it: shortest round-trip. */
std::string
renderDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    // Prefer the shortest representation that still round-trips.
    for (int prec = 1; prec < 17; ++prec) {
        char cand[32];
        std::snprintf(cand, sizeof(cand), "%.*g", prec, v);
        double back = 0.0;
        auto *end = cand + std::char_traits<char>::length(cand);
        if (std::from_chars(cand, end, back).ptr == end && back == v)
            return cand;
    }
    return buf;
}

} // namespace

const char *
faultSiteName(FaultSite site)
{
    for (const auto &info : siteTable)
        if (info.site == site)
            return info.name;
    return "?";
}

bool
FaultSpec::matchesRun(const std::string &bench, const std::string &sch) const
{
    return (benchmark == "*" || benchmark == bench) &&
           (scheme == "*" || scheme == sch);
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;

    std::size_t pos = 0;
    while (pos <= spec.size()) {
        auto semi = spec.find(';', pos);
        std::string entry = trim(
            spec.substr(pos, semi == std::string::npos ? semi : semi - pos));
        pos = semi == std::string::npos ? spec.size() + 1 : semi + 1;
        if (entry.empty())
            continue;

        auto colon = entry.find(':');
        std::string siteName = trim(entry.substr(0, colon));

        FaultSpec fs;
        bool known = false;
        for (const auto &info : siteTable) {
            if (siteName == info.name) {
                fs.site = info.site;
                known = true;
                break;
            }
        }
        if (!known)
            throw ConfigError("fault-spec",
                              "unknown fault site '" + siteName + "'");

        // Parse key=value pairs after the colon.
        std::string body =
            colon == std::string::npos ? "" : entry.substr(colon + 1);
        std::size_t bpos = 0;
        while (bpos <= body.size()) {
            auto comma = body.find(',', bpos);
            std::string kv = trim(body.substr(
                bpos, comma == std::string::npos ? comma : comma - bpos));
            bpos = comma == std::string::npos ? body.size() + 1 : comma + 1;
            if (kv.empty())
                continue;

            auto eq = kv.find('=');
            if (eq == std::string::npos)
                throw ConfigError("fault-spec", "expected key=value in '" +
                                                    siteName + "', got '" +
                                                    kv + "'");
            std::string key = trim(kv.substr(0, eq));
            std::string val = trim(kv.substr(eq + 1));

            if (key == "rate") {
                fs.rate = parseDouble(key, val);
                if (fs.rate < 0.0 || fs.rate > 1.0)
                    throw ConfigError("fault-spec",
                                      "rate must be in [0, 1], got '" + val +
                                          "'");
            } else if (key == "amp") {
                fs.amplitude = parseDouble(key, val);
                if (fs.amplitude < 0.0)
                    throw ConfigError("fault-spec",
                                      "amp must be >= 0, got '" + val + "'");
            } else if (key == "samples") {
                fs.delaySamples =
                    static_cast<std::uint32_t>(parseUint(key, val));
            } else if (key == "lo") {
                fs.loGhz = parseDouble(key, val);
            } else if (key == "hi") {
                fs.hiGhz = parseDouble(key, val);
            } else if (key == "dom") {
                fs.domain = parseDomain(val);
            } else if (key == "bench") {
                fs.benchmark = val;
            } else if (key == "scheme") {
                fs.scheme = val;
            } else {
                throw ConfigError("fault-spec", "unknown key '" + key +
                                                    "' for site '" +
                                                    siteName + "'");
            }
        }

        // Site-specific requirements.
        switch (fs.site) {
          case FaultSite::SensorNoise:
            if (fs.amplitude <= 0.0)
                throw ConfigError("fault-spec",
                                  "sensor-noise requires amp > 0");
            break;
          case FaultSite::DelayUpdate:
            if (fs.delaySamples == 0)
                throw ConfigError("fault-spec",
                                  "delay-update requires samples > 0");
            break;
          case FaultSite::ClampVf:
            if (fs.hiGhz <= 0.0 || fs.hiGhz < fs.loGhz)
                throw ConfigError(
                    "fault-spec",
                    "clamp-vf requires 0 <= lo <= hi with hi > 0");
            break;
          default:
            break;
        }

        plan._specs.push_back(std::move(fs));
    }

    return plan;
}

std::shared_ptr<const FaultPlan>
FaultPlan::parseShared(const std::string &spec)
{
    FaultPlan plan = parse(spec);
    if (plan.empty())
        return nullptr;
    return std::make_shared<const FaultPlan>(std::move(plan));
}

std::vector<const FaultSpec *>
FaultPlan::specsFor(FaultSite site) const
{
    std::vector<const FaultSpec *> out;
    for (const auto &fs : _specs)
        if (fs.site == site)
            out.push_back(&fs);
    return out;
}

bool
FaultPlan::hasSimFaults() const
{
    return std::any_of(_specs.begin(), _specs.end(), [](const FaultSpec &fs) {
        return fs.site != FaultSite::TaskThrow;
    });
}

bool
FaultPlan::taskThrows(const std::string &bench,
                      const std::string &scheme) const
{
    return std::any_of(_specs.begin(), _specs.end(), [&](const FaultSpec &fs) {
        return fs.site == FaultSite::TaskThrow && fs.matchesRun(bench, scheme);
    });
}

std::string
FaultPlan::canonical() const
{
    std::string out;
    for (const auto &fs : _specs) {
        if (!out.empty())
            out += ';';
        out += faultSiteName(fs.site);
        std::string keys;
        auto add = [&keys](const std::string &kv) {
            keys += keys.empty() ? "" : ",";
            keys += kv;
        };
        if (fs.site == FaultSite::SensorNoise)
            add("amp=" + renderDouble(fs.amplitude));
        if (fs.site == FaultSite::DelayUpdate)
            add("samples=" + std::to_string(fs.delaySamples));
        if (fs.site == FaultSite::ClampVf) {
            add("lo=" + renderDouble(fs.loGhz));
            add("hi=" + renderDouble(fs.hiGhz));
        }
        if (fs.rate != 1.0)
            add("rate=" + renderDouble(fs.rate));
        if (fs.domain >= 0)
            add(std::string("dom=") + domainName(fs.domain));
        if (fs.benchmark != "*")
            add("bench=" + fs.benchmark);
        if (fs.scheme != "*")
            add("scheme=" + fs.scheme);
        if (!keys.empty())
            out += ':' + keys;
    }
    return out;
}

} // namespace mcd
