/**
 * @file
 * In-flight dynamic instruction state shared by the pipeline stages.
 */

#ifndef MCDSIM_ARCH_DYN_INST_HH
#define MCDSIM_ARCH_DYN_INST_HH

#include <cstdint>

#include "common/types.hh"
#include "workload/inst.hh"

namespace mcd
{

struct DynInst;

/**
 * One link of a producer's wakeup list: the consumer waiting on the
 * producer's result and which of its source operands reads it.
 */
struct WakeLink
{
    DynInst *inst = nullptr;
    std::uint8_t src = 0;
};

/** Lifecycle of an instruction in the out-of-order window. */
struct DynInst
{
    TraceInst in;
    InstSeqNum seq = 0;

    /** Execution finishes at this time (maxTick = not issued yet). */
    Tick completeTime = maxTick;

    /** Entry became selectable in its issue queue at this time. */
    Tick queueVisibleTime = maxTick;

    /** Latest ready tick of the source operands known so far. */
    Tick srcReady = 0;

    /**
     * Select may issue the entry from this tick on: the later of
     * queueVisibleTime and srcReady once no producer is pending,
     * maxTick until then.
     */
    Tick eligible = maxTick;

    /** First consumer operand waiting on this instruction's result. */
    WakeLink waiters;

    /** Next link after source operand i's in its producer's list. */
    WakeLink nextWaiter[2];

    /** Source operands whose producer has not issued yet. */
    std::uint8_t pendingSrcs = 0;

    bool issued = false;

    /** Branch resolved against prediction: front end must redirect. */
    bool mispredicted = false;

    /** Load that missed in the L1 D-cache (for MSHR accounting). */
    bool l1dMiss = false;
};

} // namespace mcd

#endif // MCDSIM_ARCH_DYN_INST_HH
