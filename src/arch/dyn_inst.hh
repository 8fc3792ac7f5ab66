/**
 * @file
 * In-flight dynamic instruction state shared by the pipeline stages.
 */

#ifndef MCDSIM_ARCH_DYN_INST_HH
#define MCDSIM_ARCH_DYN_INST_HH

#include "common/types.hh"
#include "workload/inst.hh"

namespace mcd
{

/** Lifecycle of an instruction in the out-of-order window. */
struct DynInst
{
    TraceInst in;
    InstSeqNum seq = 0;

    /** Execution finishes at this time (maxTick = not issued yet). */
    Tick completeTime = maxTick;

    /** Entry became selectable in its issue queue at this time. */
    Tick queueVisibleTime = maxTick;

    /** Cached time both source operands are usable; maxTick = ask the
     *  completion table again. */
    Tick srcReady = maxTick;

    bool issued = false;

    /** Branch resolved against prediction: front end must redirect. */
    bool mispredicted = false;

    /** Load that missed in the L1 D-cache (for MSHR accounting). */
    bool l1dMiss = false;
};

} // namespace mcd

#endif // MCDSIM_ARCH_DYN_INST_HH
