/**
 * @file
 * Timing-only set-associative cache model with true LRU replacement.
 *
 * mcdsim caches track tags only (the simulator is trace-driven, so no
 * data is moved). Table 1 configuration: 64 KB 2-way L1 instruction
 * and data caches, 1 MB direct-mapped unified L2, 64-byte lines.
 */

#ifndef MCDSIM_MEM_CACHE_HH
#define MCDSIM_MEM_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/types.hh"

namespace mcd
{

/** Tag-array cache model. */
class Cache
{
  public:
    struct Config
    {
        std::string name = "cache";
        std::uint32_t sizeKb = 64;
        std::uint32_t assoc = 2;
        std::uint32_t lineBytes = 64;
    };

    explicit Cache(const Config &config);

    /**
     * Look up @p addr, filling the line on a miss (LRU victim).
     * @return true on hit.
     */
    bool access(Addr addr);

    /** Look up without modifying state. */
    bool probe(Addr addr) const;

    /** Invalidate everything. */
    void flush();

    const Config &config() const { return cfg; }
    std::uint64_t accessCount() const { return accesses; }
    std::uint64_t missCount() const { return misses; }

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }

  private:
    /** Trivial, so the constructor can zero the array with one
     *  memset: an element-wise fill loop ran up to twice as long
     *  depending on where the linker placed it. */
    struct Line
    {
        Addr tag;
        bool valid;
        std::uint64_t lastUse;
    };

    std::size_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    Config cfg;
    std::uint32_t numSets;
    std::unique_ptr<Line[]> lines; ///< numSets x assoc, row-major
    std::uint64_t useClock = 0;
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
};

} // namespace mcd

#endif // MCDSIM_MEM_CACHE_HH
