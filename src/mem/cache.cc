#include "mem/cache.hh"

#include "common/error.hh"

namespace mcd
{

namespace
{

bool
isPow2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace

Cache::Cache(const Config &config)
    : cfg(config)
{
    if (cfg.sizeKb == 0 || cfg.assoc == 0 || cfg.lineBytes == 0)
        configError("cache", "cache '%s': zero-sized parameter",
                    cfg.name.c_str());
    const std::uint64_t size = std::uint64_t(cfg.sizeKb) * 1024;
    const std::uint64_t line_count = size / cfg.lineBytes;
    if (line_count % cfg.assoc != 0)
        configError("cache", "cache '%s': size/assoc mismatch",
                    cfg.name.c_str());
    numSets = static_cast<std::uint32_t>(line_count / cfg.assoc);
    if (!isPow2(numSets) || !isPow2(cfg.lineBytes))
        configError("cache", "cache '%s': sets and line size must be powers "
                    "of two", cfg.name.c_str());
    lines.resize(std::size_t(numSets) * cfg.assoc);
}

std::size_t
Cache::setIndex(Addr addr) const
{
    return (addr / cfg.lineBytes) & (numSets - 1);
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr / cfg.lineBytes / numSets;
}

bool
Cache::access(Addr addr)
{
    ++accesses;
    ++useClock;
    const std::size_t base = setIndex(addr) * cfg.assoc;
    const Addr tag = tagOf(addr);

    for (std::uint32_t w = 0; w < cfg.assoc; ++w) {
        Line &line = lines[base + w];
        if (line.valid && line.tag == tag) {
            line.lastUse = useClock;
            return true;
        }
    }

    // Miss: fill the LRU (or first invalid) way.
    ++misses;
    std::size_t victim = base;
    std::uint64_t oldest = ~std::uint64_t(0);
    for (std::uint32_t w = 0; w < cfg.assoc; ++w) {
        Line &line = lines[base + w];
        if (!line.valid) {
            victim = base + w;
            break;
        }
        if (line.lastUse < oldest) {
            oldest = line.lastUse;
            victim = base + w;
        }
    }
    lines[victim] = Line{tag, true, useClock};
    return false;
}

bool
Cache::probe(Addr addr) const
{
    const std::size_t base = setIndex(addr) * cfg.assoc;
    const Addr tag = tagOf(addr);
    for (std::uint32_t w = 0; w < cfg.assoc; ++w) {
        const Line &line = lines[base + w];
        if (line.valid && line.tag == tag)
            return true;
    }
    return false;
}

void
Cache::flush()
{
    for (auto &line : lines)
        line.valid = false;
}

} // namespace mcd
