/**
 * @file
 * The complete MCD processor model: four GALS clock domains (Figure 1)
 * around a trace-driven out-of-order pipeline, with per-domain online
 * DVFS on the INT, FP, and LS domains (the front end runs at fixed
 * maximum speed, as in all the paper's experiments).
 *
 * Domain responsibilities per clock edge:
 *  - front end: retire from the ROB (width 11), then fetch/decode/
 *    rename/dispatch (width 4) into the per-cluster issue queues,
 *    consulting the I-cache and branch predictor; a mispredicted
 *    branch blocks fetch until it resolves plus a redirect penalty
 *    (classic trace-driven approximation);
 *  - INT / FP cluster: oldest-first select of ready, visible entries
 *    up to the cluster issue width, constrained by functional units;
 *  - LS cluster: same, with L1D/L2/memory latency on loads, MSHR
 *    occupancy limits, and store completion at address generation
 *    (store buffer assumed).
 *
 * Cross-domain values (queue entries, operand wakeups, completion
 * broadcasts) become usable only syncWindow after production, which
 * the consumer observes at its next clock edge — the Sjogren-Myers
 * interface behaviour of Section 2.
 *
 * A sampler fires at the 250 MHz sampling rate and feeds each
 * controlled domain's queue occupancy to its DVFS driver.
 *
 * The processor is its own scheduler: a fixed next-event table holds
 * each domain's next edge and the sampler's next tick, and run()
 * dispatches the earliest (earliestSlot(), mcd/clock_domain.hh).
 * A domain whose coming edges can change nothing but its own
 * accumulators parks: its slot holds a wake tick instead, and its
 * skipped edges are replayed in its own order just before anything
 * reads or writes state they depend on (DESIGN.md, "Parked domains").
 *
 * Documented simplifications versus the Rochester simulator: the
 * 72+72 physical register file and the 64-entry LS retire buffer are
 * not separate stall sources (the ROB and queue capacities dominate),
 * and stores complete at address generation.
 */

#ifndef MCDSIM_CORE_MCD_PROCESSOR_HH
#define MCDSIM_CORE_MCD_PROCESSOR_HH

#include <array>
#include <bit>
#include <deque>
#include <memory>
#include <vector>

#include "arch/branch_predictor.hh"
#include "arch/completion_table.hh"
#include "arch/fu_pool.hh"
#include "arch/issue_queue.hh"
#include "arch/rob.hh"
#include "core/metrics.hh"
#include "core/sim_config.hh"
#include "dvfs/dvfs_driver.hh"
#include "mcd/clock_domain.hh"
#include "mcd/sync_interface.hh"
#include "mem/memory_system.hh"
#include "obs/stats_registry.hh"
#include "obs/trace_sink.hh"
#include "power/energy_model.hh"
#include "workload/source.hh"

namespace mcd
{

class FaultInjector;

/** One processor simulation instance (single use: construct, run). */
class McdProcessor
{
  public:
    McdProcessor(const SimConfig &config, WorkloadSource &source);
    ~McdProcessor();

    McdProcessor(const McdProcessor &) = delete;
    McdProcessor &operator=(const McdProcessor &) = delete;

    /**
     * Run until the trace is exhausted and the pipeline drains, or
     * @p max_instructions have retired (0 = no limit).
     */
    SimResult run(std::uint64_t max_instructions = 0);

    /** Clock edges run as parked-domain replays so far. */
    std::uint64_t replayedEdgeCount() const { return replayedEdges; }

  private:
    /**
     * Issue-select memo of one cluster queue. A full scan left no
     * eligible entry but those it issued and loads refused for want
     * of an MSHR. It records the earliest tick at which one could
     * become so: the minimum over entries of the eligible tick, and
     * over refused loads of the first MSHR release. Until then a scan
     * would issue nothing, so the edge skips it. Only two writes give
     * an entry of this queue an eligible tick, an insert and the
     * wakeup of its last pending operand, and each lowers the wake to
     * that tick (wakeQueue()). A scan that stopped at the issue width,
     * or saw an eligible entry refused for a busy unit, records 0,
     * which no write raises.
     */
    struct SelectMemo
    {
        Tick wakeTick = 0;

        bool holds(Tick now) const { return now < wakeTick; }
    };

    /** Why a front-end edge dispatched nothing; indexes feStalls. */
    enum class FeStall : std::uint8_t
    {
        Fetch,     ///< I-miss or redirect (fetchStallUntil)
        Branch,    ///< unresolved mispredicted branch
        RobFull,
        QueueFull, ///< the pending instruction's cluster queue
        None,      ///< counted by no stall counter
    };

    /** Dispatch the event in @p slot, at curTick. */
    void dispatch(std::size_t slot);

    /** @{ Parked domains (DESIGN.md, "Parked domains"). */
    /** After a real edge of domain @p d: park it if its next edges
     *  are idle. */
    void tryPark(std::size_t d);
    /** Wake tick of the front end's idle run after the edge that
     *  just ran; 0 when its next edge may do work. */
    Tick frontEndParkWake();
    /** Wake tick of cluster @p ctl's idle run from its next edge,
     *  @p next, on, from its SelectMemo; 0 when that edge may issue. */
    Tick clusterParkWake(std::size_t ctl, Tick next);
    /** Replay parked domain @p d's edges before (@p t, @p slot) in
     *  (tick, slot) order. No-op for a running domain. */
    void catchUp(std::size_t d, Tick t, std::size_t slot);
    /** catchUp() every parked domain to the event being dispatched. */
    void
    catchUpAll()
    {
        for (unsigned m = parkedMask; m != 0; m &= m - 1)
            catchUp(static_cast<std::size_t>(std::countr_zero(m)), curTick,
                    curSlot);
    }
    /** Put parked domain @p d's real next edge back in its slot. */
    void
    resume(std::size_t d)
    {
        parkedMask &= ~(1u << d);
        slotTimes[d] = domains[d]->nextEdgeTime();
    }
    /** @p inst, queued in cluster domain @p dom, has no operand
     *  pending: set its eligible tick, lower that queue's select wake
     *  to it, and a parked cluster's wake slot with it, so the cluster
     *  stays parked. */
    void wakeQueue(DynInst &inst, DomainId dom);
    /** @} */

    /**
     * @{ Completion-table writes. Neither touches what a parked
     * domain's replayed edges read, except as stated: beginInst()
     * catches up @p domain, whose queue occupancy, issue-queue energy
     * and clock (`sync.visibleAt`) the insert that follows changes or
     * reads; completeInst() catches up and resumes a parked front end
     * whose idle run it ends. Each entry that gets an eligible tick
     * lowers its own queue's wake (wakeQueue()).
     */
    /** Register @p inst, just allocated, as in flight in @p domain:
     *  fold each known operand-ready tick into its srcReady and link
     *  it into each unissued producer's wakeup list. */
    void beginInst(DynInst &inst, DomainId domain);
    /** Record that @p inst issued and completes at @p when, and wake
     *  its waiting consumers (DESIGN.md, "Operand wakeup and the eligible
     *  tick"). */
    void completeInst(DynInst &inst, Tick when);
    /** @} */

    /** Dispatch the just-allocated @p inst into @p q at the front-end
     *  edge @p now, with the eligible tick its operands allow; returns
     *  the domain that executes it. */
    DomainId enqueue(DynInst &inst, IssueQueue &q, Tick now);

    /** @{ Per-domain edge work. */
    void frontEndTick();
    void fetchTick(); ///< 5-domain partition only
    void intTick();
    void fpTick();
    /** @p ctl indexes controlledDomains (0 = INT, 1 = FP). */
    void clusterTick(std::size_t ctl, IssueQueue &queue, ClusterFus &fus,
                     std::uint32_t width);
    void loadStoreTick();
    void samplerTick();
    /** @} */

    /**
     * @{ The accounting every edge of a domain kind does, idle or not.
     * A real tick ends by building its charge and applying it once; a
     * replayed edge is only the charge. A catch-up builds it once and
     * applies it per edge: nothing it reads can change while the
     * domain is parked.
     */
    struct FrontEndCharge
    {
        double robOccupancy; ///< at the edge's start
        FeStall stall;
        double clockJoules;
    };
    struct ClusterCharge
    {
        DomainId dom;
        bool queued; ///< entries waiting: wake-up energy
        double wakeupJoules;
        double clockJoules;
    };
    FrontEndCharge frontEndCharge(std::size_t rob_occupancy, FeStall stall,
                                  bool active);
    ClusterCharge clusterCharge(DomainId dom, const IssueQueue &queue,
                                bool issued);
    void apply(const FrontEndCharge &c);
    void apply(const ClusterCharge &c);
    /** @} */

    /**
     * Oldest-first issue select over @p queue of controlled domain
     * @p ctl, through its SelectMemo. @p try_issue is offered each
     * entry whose eligible tick has come, up to @p width issues; it
     * issues the entry and returns true, or returns false when a unit
     * or an MSHR is busy. @p retry_at() then names the earliest tick a
     * refused entry could issue; at or before now it proves nothing
     * and the scan records no memo. Issued entries leave the queue.
     * Returns the number issued.
     */
    template <typename TryIssue, typename RetryAt>
    unsigned select(std::size_t ctl, IssueQueue &queue, unsigned width,
                    TryIssue &&try_issue, RetryAt &&retry_at);

#if MCDSIM_DCHECK_IS_ON
    /**
     * Reference scan on a memo-skipped or replayed edge: nothing may
     * be ready but, in the LS queue, loads facing full MSHRs.
     */
    void checkSkippedSelect(const IssueQueue &queue, DomainId dom,
                            Tick now) const;
    /** @p inst's eligible tick and a fresh probe of the completion
     *  table agree on whether it may issue at @p now. */
    void checkEligible(const DynInst &inst, DomainId dom, Tick now) const;
    /** A replayed front-end edge at @p now would do no work. */
    void checkFrontEndIdle(Tick now) const;
#endif

    void retireStage(Tick now, unsigned &retired_this_cycle);
    FeStall dispatchStage(Tick now, unsigned &dispatched_this_cycle);
    FeStall dispatchFromBuffer(Tick now, unsigned &dispatched_this_cycle);
    bool handleBranchAtDispatch(DynInst *inst);

    /**
     * Predict, train, and account the branch at @p in; returns true
     * on a mispredict (full redirect needed). Shared by the 4-domain
     * dispatch path and the 5-domain fetch path.
     */
    bool evaluateBranch(const TraceInst &in);

#if MCDSIM_DCHECK_IS_ON
    /**
     * Time both source operands of @p inst are usable in @p consumer,
     * probed afresh; maxTick while a producer has not issued. The
     * debug checks compare it with the eligible tick.
     */
    Tick
    srcReadyTime(const DynInst &inst, DomainId consumer) const
    {
        Tick ready = 0;
        for (int i = 0; i < 2; ++i) {
            const std::uint16_t dist = inst.in.srcDist[i];
            if (dist == 0 || dist >= inst.seq)
                continue;
            const Tick t = completion.readyTime(inst.seq - dist, consumer,
                                                crossPenalty());
            if (t > ready)
                ready = t;
        }
        return ready;
    }
#endif

    IssueQueue &queueFor(InstClass cls);
    /** Queue of controlled domain @p ctl (0 = INT, 1 = FP, 2 = LS). */
    const IssueQueue &
    clusterQueue(std::size_t ctl) const
    {
        return ctl == 0 ? intQ : ctl == 1 ? fpQ : lsQ;
    }
    DomainId domainFor(InstClass cls) const;
    Tick crossPenalty() const { return cfg.mcdEnabled ? cfg.syncWindow : 0; }
    void finalizeEnergy();
    SimResult collectResult();

    /** Register every component's stats (SimConfig::collectStats). */
    void registerStats();

    SimConfig cfg;
    WorkloadSource &src;

    /** Current simulated time: the time base of every domain. */
    Tick curTick = 0;

    /** Next edge per domain, then the sampler's next tick. */
    SlotTimes slotTimes{};

    /** Events dispatched so far (edges plus sampler ticks), replayed
     *  edges included. */
    std::uint64_t eventsProcessed = 0;

    /** The slot being dispatched; catch-ups replay up to
     *  (curTick, curSlot). */
    std::size_t curSlot = 0;

    /** Domains may park: nothing observes the per-event order. */
    bool parkingEnabled = false;

    /** Bit d set while domain d is parked: slotTimes[d] then holds its
     *  wake tick and its real next edge is nextEdgeTime(). */
    unsigned parkedMask = 0;

    /** The stall the front end's last real edge counted; while it is
     *  parked, the stall every replayed edge counts. */
    FeStall feParkStall = FeStall::None;

    std::uint64_t replayedEdges = 0;

    // Clock domains (order matches DomainId).
    std::vector<std::unique_ptr<ClockDomain>> domains;

    VfCurve vf;
    std::vector<std::unique_ptr<DvfsController>> controllers; // INT,FP,LS
    std::vector<std::unique_ptr<DvfsDriver>> drivers;         // INT,FP,LS

    BranchPredictor bpred;
    MemorySystem mem;
    SyncInterface sync;
    EnergyModel energy;

    Rob reorderBuffer;
    IssueQueue intQ;
    IssueQueue fpQ;
    IssueQueue lsQ;
    ClusterFus intFus;
    ClusterFus fpFus;
    CompletionTable completion;
    std::array<SelectMemo, 3> selectMemo{}; // INT, FP, LS

    Tick samplingPeriod;

    // Front-end state.
    InstSeqNum nextSeq = 1;
    TraceInst pendingInst{};
    bool havePending = false;
    bool traceExhausted = false;
    Tick fetchStallUntil = 0;
    InstSeqNum blockedBranchSeq = 0;
    Addr lastFetchLine = ~Addr(0);

    // Fetch buffer between the fetch and dispatch domains (5-domain
    // partition only).
    struct FetchedInst
    {
        TraceInst in;
        Tick visibleTime;
        bool mispredicted;
    };
    std::deque<FetchedInst> fetchBuffer;
    bool fetchWaitingResolve = false;

    // Load/store state.
    std::vector<Tick> outstandingMisses;

    // Run bookkeeping.
    std::uint64_t maxInstructions = 0;
    bool done = false;
    std::uint64_t mispredicts = 0;

    // Front-end stall accounting.
    std::uint64_t feCycles = 0;
    std::array<std::uint64_t, 4> feStalls{}; ///< by FeStall
    double robOccupancySum = 0.0;

    // Sampled accumulators for the result.
    std::array<double, 3> freqSum{};
    std::array<double, 3> queueSum{};
    std::uint64_t sampleCount = 0;

    // Optional traces.
    std::array<TimeSeries, 3> freqTraces;
    std::array<TimeSeries, 3> queueTraces;

    // Observability (src/obs/): the registry is populated only under
    // cfg.collectStats; the sink records only under cfg.trace.enabled.
    obs::StatsRegistry statsReg;
    obs::TraceSink traceSink;

    /** Sampled distributions, non-null only when stats are on. */
    std::array<obs::Distribution *, 3> queueDists{};
    std::array<obs::Distribution *, 3> freqDists{};

    /** Fault injection (src/fault/), non-null only under cfg.faults. */
    std::unique_ptr<FaultInjector> faultInj;
};

} // namespace mcd

#endif // MCDSIM_CORE_MCD_PROCESSOR_HH
