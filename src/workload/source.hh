/**
 * @file
 * Abstract instruction-trace source consumed by the front end.
 */

#ifndef MCDSIM_WORKLOAD_SOURCE_HH
#define MCDSIM_WORKLOAD_SOURCE_HH

#include <string>

#include "workload/inst.hh"

namespace mcd
{

class FaultInjector;

/** Produces a deterministic stream of dynamic instructions. */
class WorkloadSource
{
  public:
    virtual ~WorkloadSource() = default;

    /**
     * Attach the run's fault injector. No in-tree source consumes
     * faults, so the default is a no-op; a wrapping source overrides
     * it to forward the injector. @p injector may be null or outlive
     * the source's last next() call.
     */
    virtual void attachFaults(FaultInjector *injector) { (void)injector; }

    /**
     * Produce the next instruction into @p out.
     * @return false when the trace is exhausted.
     */
    virtual bool next(TraceInst &out) = 0;

    /** Restart from the beginning (same deterministic stream). */
    virtual void reset() = 0;

    /** Total instructions this source will produce, if known (else 0). */
    virtual std::uint64_t totalInstructions() const { return 0; }

    virtual std::string name() const = 0;
};

} // namespace mcd

#endif // MCDSIM_WORKLOAD_SOURCE_HH
