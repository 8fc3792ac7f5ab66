/**
 * @file
 * Stats registration for the header-only pipeline structures. Kept in
 * one translation unit so the headers stay free of the registry
 * include (only the forward declaration).
 */

#include "arch/issue_queue.hh"
#include "arch/rob.hh"
#include "obs/stats_registry.hh"

namespace mcd
{

void
IssueQueue::registerStats(obs::StatsRegistry &reg,
                          const std::string &prefix) const
{
    reg.addIntCallback(prefix + ".capacity", "queue capacity, entries",
                       [this] { return std::uint64_t(cap); });
    reg.addIntCallback(prefix + ".occupancy",
                       "occupancy at dump time, entries", [this] {
                           return std::uint64_t(count);
                       });
    reg.addIntCallback(prefix + ".max_occupancy",
                       "occupancy high-water mark, entries", [this] {
                           return std::uint64_t(_maxOccupancy);
                       });
}

void
Rob::registerStats(obs::StatsRegistry &reg,
                   const std::string &prefix) const
{
    reg.addIntCallback(prefix + ".capacity", "ROB capacity, entries",
                       [this] { return std::uint64_t(slots.size()); });
    reg.addIntCallback(prefix + ".occupancy",
                       "occupancy at dump time, entries",
                       [this] { return std::uint64_t(count); });
    reg.addIntCallback(prefix + ".retired",
                       "instructions retired since construction",
                       [this] { return retired; });
}

} // namespace mcd
