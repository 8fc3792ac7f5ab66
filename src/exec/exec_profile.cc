#include "exec/exec_profile.hh"

namespace mcd
{

void
ExecProfile::recordTask(double queue_wait_ms, double exec_ms)
{
    std::lock_guard lock(mtx);
    waitMs.add(queue_wait_ms);
    execMs.add(exec_ms);
}

SummaryStats
ExecProfile::execSummary() const
{
    std::lock_guard lock(mtx);
    return execMs;
}

SummaryStats
ExecProfile::waitSummary() const
{
    std::lock_guard lock(mtx);
    return waitMs;
}

} // namespace mcd
