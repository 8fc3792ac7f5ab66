#include "core/runner.hh"

namespace mcd
{

const char *
runStatusName(RunStatus status)
{
    switch (status) {
      case RunStatus::Ok: return "ok";
      case RunStatus::RetriedOk: return "retried_ok";
      case RunStatus::Failed: return "failed";
      case RunStatus::TimedOut: return "timed_out";
    }
    return "?";
}

} // namespace mcd
