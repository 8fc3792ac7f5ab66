#include "core/mcd_processor.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hh"
#include "common/logging.hh"
#include "dvfs/fixed_controller.hh"
#include "fault/fault_injector.hh"
#include "obs/debug_flags.hh"

namespace mcd
{

const char *
controllerKindName(ControllerKind kind)
{
    switch (kind) {
      case ControllerKind::Fixed: return "fixed";
      case ControllerKind::Adaptive: return "adaptive";
      case ControllerKind::Pid: return "pid-fixed-interval";
      case ControllerKind::AttackDecay: return "attack-decay";
      case ControllerKind::Custom: return "custom";
    }
    panic("unknown controller kind %d", static_cast<int>(kind));
}

ControllerKind
parseControllerKind(const std::string &name, const char *site)
{
    if (name == "pid")
        return ControllerKind::Pid;
    for (ControllerKind kind :
         {ControllerKind::Fixed, ControllerKind::Adaptive,
          ControllerKind::Pid, ControllerKind::AttackDecay}) {
        if (name == controllerKindName(kind))
            return kind;
    }
    throw ConfigError(site, "unknown scheme '" + name +
                                "' (use adaptive, pid, attack-decay, "
                                "fixed)");
}

namespace
{

/** The three controlled domains, in driver index order. */
constexpr DomainId controlledDomains[3] = {DomainId::Int, DomainId::Fp,
                                           DomainId::LoadStore};

std::unique_ptr<DvfsController>
makeController(const SimConfig &cfg, const VfCurve &vf, std::size_t idx,
               double queue_capacity)
{
    if (!cfg.controlDomain[idx])
        return std::make_unique<FixedController>();
    switch (cfg.controller) {
      case ControllerKind::Fixed:
        return std::make_unique<FixedController>();
      case ControllerKind::Adaptive: {
        AdaptiveController::Config c = cfg.adaptive;
        c.qref = cfg.qref[idx];
        return std::make_unique<AdaptiveController>(vf, c);
      }
      case ControllerKind::Pid: {
        PidController::Config c = cfg.pid;
        c.qref = cfg.qref[idx];
        return std::make_unique<PidController>(vf, c);
      }
      case ControllerKind::AttackDecay: {
        AttackDecayController::Config c = cfg.attackDecay;
        c.queueCapacity = queue_capacity;
        return std::make_unique<AttackDecayController>(vf, c);
      }
      case ControllerKind::Custom: {
        if (!cfg.customController)
            throw ConfigError("controller",
                              "ControllerKind::Custom without a "
                              "customController factory");
        auto ctrl = cfg.customController(idx, vf);
        if (!ctrl)
            throw ConfigError("controller",
                              "customController factory returned null");
        return ctrl;
      }
    }
    panic("unknown controller kind");
}

} // namespace

McdProcessor::McdProcessor(const SimConfig &config, WorkloadSource &source)
    : cfg(config), src(source), vf(config.vfRange),
      bpred(config.predictor), mem(config.memory),
      sync(SyncInterface::Config{config.syncWindow, config.mcdEnabled}),
      energy(config.energy), reorderBuffer(config.robSize),
      intQ("int-queue", config.intQueueSize),
      fpQ("fp-queue", config.fpQueueSize),
      lsQ("ls-queue", config.lsQueueSize),
      intFus("int", config.intAlus, 1), fpFus("fp", config.fpAlus, 1),
      completion(CompletionTable::capacityFor(config.robSize)),
      samplingPeriod(config.samplingPeriod()),
      freqTraces{TimeSeries{"int-freq-ghz", config.traceStride},
                 TimeSeries{"fp-freq-ghz", config.traceStride},
                 TimeSeries{"ls-freq-ghz", config.traceStride}},
      queueTraces{TimeSeries{"int-queue", config.traceStride},
                  TimeSeries{"fp-queue", config.traceStride},
                  TimeSeries{"ls-queue", config.traceStride}},
      traceSink(config.trace)
{
    if (!cfg.mcdEnabled && cfg.controller != ControllerKind::Fixed)
        throw ConfigError("mcd", "DVFS control requires the MCD "
                                 "configuration");

    // Build the clock domains, all starting at f_max / v_max. The
    // Fetch domain exists only in the 5-domain partition.
    const std::size_t domain_count = cfg.fiveDomainPartition ? 5 : 4;
    for (std::size_t d = 0; d < domain_count; ++d) {
        ClockDomain::Config dc;
        dc.id = static_cast<DomainId>(d);
        dc.initialHz = vf.fMax();
        dc.initialVolt = vf.voltageAt(vf.fMax());
        dc.jitterEnabled = cfg.mcdEnabled && cfg.jitterEnabled;
        dc.jitterSeed = cfg.seed * 0x9e3779b9u + d;
        domains.push_back(std::make_unique<ClockDomain>(curTick, dc));
    }

    // Controllers and drivers for the INT, FP, LS domains.
    const double caps[3] = {static_cast<double>(cfg.intQueueSize),
                            static_cast<double>(cfg.fpQueueSize),
                            static_cast<double>(cfg.lsQueueSize)};
    for (std::size_t i = 0; i < 3; ++i) {
        controllers.push_back(makeController(cfg, vf, i, caps[i]));
        drivers.push_back(std::make_unique<DvfsDriver>(
            vf, cfg.dvfsModel, *controllers.back(),
            *domains[static_cast<std::size_t>(controlledDomains[i])],
            vf.fMax(), samplingPeriod));
    }

    // Launch the clocks and the sampler. A domain the partition lacks
    // keeps its slot at maxTick and never fires.
    slotTimes.fill(maxTick);
    for (std::size_t d = 0; d < domains.size(); ++d) {
        domains[d]->start();
        slotTimes[d] = domains[d]->nextEdgeTime();
    }
    slotTimes[samplerSlot] = samplingPeriod;

    // Parking reorders dispatches, so it is off wherever the order of
    // single events is observable: an event budget (its trip tick is
    // part of its message), per-edge trace events, EventQueue lines.
    parkingEnabled = cfg.eventBudget == 0 && !traceSink.wantsClockEdges() &&
                     !obs::debugFlagEnabled(obs::DebugFlag::EventQueue);

    // Observability wiring: attach the trace sink (components cache
    // the pointer, so disabled tracing costs nothing at run time) and
    // seed the frequency counter tracks with the initial operating
    // points, which were applied before the sink existed.
    if (traceSink.enabled()) {
        for (auto &dom : domains)
            dom->attachTrace(&traceSink);
        for (std::size_t i = 0; i < 3; ++i)
            drivers[i]->attachTrace(&traceSink, controlledDomains[i]);
        if (traceSink.wantsOperatingPoints()) {
            for (auto &dom : domains) {
                traceSink.operatingPoint(0, dom->id(), dom->frequency(),
                                         dom->voltage());
            }
        }
    }
    // Fault injection wiring: one injector per attempt, derived from
    // (seed, attempt), attached to the drivers and the workload
    // source. Absent entirely when no plan is configured, so the
    // fault-free run is bit-identical to a build without src/fault/.
    if (cfg.faults && !cfg.faults->empty()) {
        FaultInjector::Identity id;
        id.benchmark =
            cfg.faultBenchmark.empty() ? src.name() : cfg.faultBenchmark;
        id.scheme = cfg.faultScheme.empty() ? controllers[0]->name()
                                            : cfg.faultScheme;
        id.seed = cfg.seed;
        id.attempt = cfg.faultAttempt;
        faultInj = std::make_unique<FaultInjector>(cfg.faults, id);
        for (std::size_t i = 0; i < 3; ++i)
            drivers[i]->attachFaults(faultInj.get(), i);
        src.attachFaults(faultInj.get());
    }

    if (cfg.collectStats)
        registerStats();
}

McdProcessor::~McdProcessor() = default;

void
McdProcessor::registerStats()
{
    statsReg.addIntCallback("sim.eq.processed",
                            "events dispatched since construction",
                            [this] { return eventsProcessed; });
    const std::uint64_t pending = domains.size() + 1;
    statsReg.addIntCallback("sim.eq.pending", "events scheduled at dump time",
                            [pending] { return pending; });
    statsReg.addIntCallback("sim.samples", "DVFS sampler invocations",
                            [this] { return sampleCount; });

    for (const auto &dom : domains)
        dom->registerStats(statsReg, std::string(dom->name()) + ".clock");

    const IssueQueue *queues[3] = {&intQ, &fpQ, &lsQ};
    for (std::size_t i = 0; i < 3; ++i) {
        const std::string dom = domainName(controlledDomains[i]);
        drivers[i]->registerStats(statsReg, dom + ".dvfs");
        queues[i]->registerStats(statsReg, dom + ".queue");
        queueDists[i] = &statsReg.addDistribution(
            dom + ".queue.sampled_occupancy",
            "queue occupancy over 250 MHz samples");
        freqDists[i] = &statsReg.addDistribution(
            dom + ".dvfs.sampled_ghz",
            "frequency over 250 MHz samples, GHz");

        const DvfsController *ctrl = controllers[i].get();
        const DvfsDriver *drv = drivers[i].get();
        statsReg.addIntCallback(dom + ".controller.actions_up",
                                "frequency-increase actions issued",
                                [ctrl] { return ctrl->stats().actionsUp; });
        statsReg.addIntCallback(
            dom + ".controller.actions_down",
            "frequency-decrease actions issued",
            [ctrl] { return ctrl->stats().actionsDown; });
        statsReg.addIntCallback(
            dom + ".controller.cancellations",
            "opposite simultaneous triggers cancelled",
            [ctrl] { return ctrl->stats().cancellations; });
        statsReg.addIntCallback(dom + ".controller.samples",
                                "queue samples observed",
                                [ctrl] { return ctrl->stats().samples; });
        statsReg.addIntCallback(dom + ".controller.freq_changes",
                                "frequency transitions the decisions "
                                "caused",
                                [drv] { return drv->transitionCount(); });

        // Stability metrics for the robustness studies (Section 4's
        // perturbation remarks): sustained overshoot above q_ref and
        // frequency dispersion over the 250 MHz sampled series. The
        // overshoot is the time-mean excess, not the peak: every run
        // fills the LS queue during memory stalls whatever the
        // controller does, so the sampled max saturates at capacity
        // and cannot discriminate between schemes.
        const double qr = cfg.qref[i];
        const obs::Distribution *qd = queueDists[i];
        const obs::Distribution *fd = freqDists[i];
        statsReg.addCallback(dom + ".stability.queue_overshoot",
                             "mean sampled occupancy above q_ref",
                             [qd, qr] {
                                 return std::max(0.0,
                                                 qd->summary().mean() - qr);
                             });
        statsReg.addCallback(dom + ".stability.freq_stddev_ghz",
                             "stddev of sampled frequency, GHz",
                             [fd] {
                                 return std::sqrt(fd->summary().variance());
                             });
    }

    if (faultInj)
        faultInj->registerStats(statsReg, "fault");

    reorderBuffer.registerStats(statsReg, "frontend.rob");
    statsReg.addIntCallback("frontend.cycles", "front-end clock cycles",
                            [this] { return feCycles; });
    const auto stall = [this](FeStall s) {
        return [this, s] { return feStalls[static_cast<std::size_t>(s)]; };
    };
    statsReg.addIntCallback("frontend.stall.fetch",
                            "cycles stalled on I-miss or redirect",
                            stall(FeStall::Fetch));
    statsReg.addIntCallback("frontend.stall.branch",
                            "cycles blocked on an unresolved mispredict",
                            stall(FeStall::Branch));
    statsReg.addIntCallback("frontend.stall.rob_full",
                            "dispatch halts on a full ROB",
                            stall(FeStall::RobFull));
    statsReg.addIntCallback("frontend.stall.queue_full",
                            "dispatch halts on a full cluster queue",
                            stall(FeStall::QueueFull));
    statsReg.addIntCallback("frontend.mispredicts",
                            "branch mispredicts requiring redirect",
                            [this] { return mispredicts; });

    statsReg.addIntCallback("sync.crossings",
                            "cross-domain value crossings",
                            [this] { return sync.crossingCount(); });
    statsReg.addIntCallback("sync.penalties",
                            "crossings that paid the window penalty",
                            [this] { return sync.penaltyCount(); });

    energy.registerStats(statsReg, "power", domains.size());
}

DomainId
McdProcessor::domainFor(InstClass cls) const
{
    if (isFp(cls))
        return DomainId::Fp;
    if (isMem(cls))
        return DomainId::LoadStore;
    return DomainId::Int; // int ops and branches
}

IssueQueue &
McdProcessor::queueFor(InstClass cls)
{
    switch (domainFor(cls)) {
      case DomainId::Fp: return fpQ;
      case DomainId::LoadStore: return lsQ;
      default: return intQ;
    }
}

// ---------------------------------------------------------------- front end

void
McdProcessor::retireStage(Tick now, unsigned &retired_this_cycle)
{
    while (retired_this_cycle < cfg.retireWidth && !reorderBuffer.empty()) {
        DynInst *head = reorderBuffer.head();
        if (head->completeTime == maxTick)
            break;
        const DomainId prod = domainFor(head->in.cls);
        const Tick visible =
            head->completeTime +
            (prod == DomainId::FrontEnd ? 0 : crossPenalty());
        if (visible > now)
            break;
        reorderBuffer.retireHead();
        ++retired_this_cycle;
        energy.addEvent(DomainId::FrontEnd, EnergyCategory::Retire,
                        energy.config().retirePerInst,
                        domains[0]->voltage());
    }
}

bool
McdProcessor::evaluateBranch(const TraceInst &b)
{
    const BranchPrediction pred = bpred.predict(b.pc);

    const bool dir_ok = pred.taken == b.taken;
    const bool tgt_ok =
        !b.taken || (pred.btbHit && pred.target == b.target);
    bpred.recordOutcome(dir_ok, dir_ok ? tgt_ok : false);
    bpred.update(b.pc, b.taken, b.target);

    // Wrong direction, or taken with no usable target: full redirect.
    return !dir_ok || (b.taken && !tgt_ok);
}

bool
McdProcessor::handleBranchAtDispatch(DynInst *inst)
{
    const bool mispredict = evaluateBranch(inst->in);
    if (mispredict) {
        inst->mispredicted = true;
        blockedBranchSeq = inst->seq;
        ++mispredicts;
    }
    return mispredict;
}

void
McdProcessor::beginInst(DynInst &inst, DomainId domain)
{
    unparkAll();
    completion.beginInst(inst.seq, domain);
    for (std::uint8_t i = 0; i < 2; ++i) {
        const std::uint16_t dist = inst.in.srcDist[i];
        if (dist == 0 || dist >= inst.seq)
            continue;
        // The one probe of this operand: a producer that issued (or
        // retired) has a final ready tick. Its slot is reused only at
        // a distance of capacity - robSize or more, which names a
        // producer retired before now, so that tick or the 0 a reused
        // slot reads both lie below every tick select sees this entry.
        const Tick t =
            completion.readyTime(inst.seq - dist, domain, crossPenalty());
        if (t != maxTick) {
            inst.srcReady = std::max(inst.srcReady, t);
            continue;
        }
        // An unissued producer cannot have retired: it is dist slots
        // back in the ROB. Wait on it.
        DynInst &producer = *reorderBuffer.olderBy(&inst, dist);
        MCDSIM_DCHECK_EQ(producer.seq, inst.seq - dist,
                         "wakeup list of the wrong producer");
        inst.nextWaiter[i] = producer.waiters;
        producer.waiters = {&inst, i};
        ++inst.pendingSrcs;
    }
}

void
McdProcessor::completeInst(DynInst &inst, Tick when)
{
    unparkAll();
    inst.issued = true;
    inst.completeTime = when;
    completion.complete(inst.seq, when);
    // Each consumer reads the result when CompletionTable::readyTime
    // would: at when, plus the crossing penalty from another domain.
    const DomainId dom = domainFor(inst.in.cls);
    for (WakeLink w = inst.waiters; w.inst != nullptr;) {
        DynInst &c = *w.inst;
        const Tick ready =
            domainFor(c.in.cls) == dom ? when : when + crossPenalty();
        c.srcReady = std::max(c.srcReady, ready);
        if (--c.pendingSrcs == 0)
            c.eligible = std::max(c.queueVisibleTime, c.srcReady);
        w = c.nextWaiter[w.src];
    }
}

DomainId
McdProcessor::enqueue(DynInst &inst, IssueQueue &q, Tick now)
{
    const DomainId exec_dom = domainFor(inst.in.cls);
    beginInst(inst, exec_dom);
    // The queue write launches mid-way through the dispatching
    // front-end cycle (dispatch logic settles well before the next
    // edge); the consumer captures it at its first edge from then
    // on. Synchronization cost follows the interface-queue
    // behaviour of Section 2: a write into a NON-empty queue needs
    // no synchronization (older entries are already settled and
    // FIFO order protects the new one), while a write that the
    // consumer could race ahead to — an empty-queue handoff — pays
    // the 300 ps window rule and may slip one consumer cycle.
    const Tick write_time = now + domains[0]->period() / 2;
    inst.queueVisibleTime =
        (cfg.mcdEnabled && q.empty())
            ? sync.visibleAt(*domains[static_cast<std::size_t>(exec_dom)],
                             write_time)
            : write_time;
    inst.eligible = inst.pendingSrcs != 0
                        ? maxTick
                        : std::max(inst.queueVisibleTime, inst.srcReady);
    q.insert(&inst);
    return exec_dom;
}

McdProcessor::FeStall
McdProcessor::dispatchStage(Tick now, unsigned &dispatched_this_cycle)
{
    // A mispredicted branch blocks fetch until its resolution time is
    // known (it issues) and has passed, plus the redirect penalty.
    if (blockedBranchSeq != 0) {
        const Tick t = completion.readyTime(
            blockedBranchSeq, DomainId::FrontEnd, crossPenalty());
        if (t == maxTick)
            return FeStall::Branch; // still unresolved
        const Tick resume =
            t + Tick(cfg.branchRedirectCycles) * domains[0]->period();
        fetchStallUntil = std::max(fetchStallUntil, resume);
        blockedBranchSeq = 0;
    }
    if (now < fetchStallUntil)
        return FeStall::Fetch;

    const Volt fe_volt = domains[0]->voltage();
    while (dispatched_this_cycle < cfg.fetchWidth) {
        if (!havePending) {
            if (traceExhausted || !src.next(pendingInst)) {
                traceExhausted = true;
                break;
            }
            havePending = true;
        }

        // Instruction-cache access, one per line change.
        const Addr line = pendingInst.pc / cfg.memory.l1i.lineBytes;
        if (line != lastFetchLine) {
            const MemAccessResult res = mem.fetchAccess(pendingInst.pc);
            lastFetchLine = line;
            energy.addEvent(DomainId::FrontEnd, EnergyCategory::Cache,
                            energy.config().l1AccessEnergy, fe_volt);
            if (res.level != MemLevel::L1) {
                energy.addEvent(DomainId::FrontEnd, EnergyCategory::Cache,
                                energy.config().l2AccessEnergy, fe_volt);
                fetchStallUntil = now + res.beyondL1Latency;
                break;
            }
        }

        if (reorderBuffer.full())
            return FeStall::RobFull;
        IssueQueue &q = queueFor(pendingInst.cls);
        if (q.full())
            return FeStall::QueueFull;

        DynInst *inst = reorderBuffer.allocate();
        inst->in = pendingInst;
        inst->seq = nextSeq++;
        havePending = false;

        const DomainId exec_dom = enqueue(*inst, q, now);
        ++dispatched_this_cycle;

        const auto &ec = energy.config();
        energy.addEvent(DomainId::FrontEnd, EnergyCategory::Fetch,
                        ec.fetchPerInst, fe_volt);
        energy.addEvent(DomainId::FrontEnd, EnergyCategory::Rename,
                        ec.renamePerInst, fe_volt);
        energy.addEvent(DomainId::FrontEnd, EnergyCategory::Rob,
                        ec.robPerInst, fe_volt);
        energy.addEvent(
            exec_dom, EnergyCategory::IssueQueue, ec.iqWritePerInst,
            domains[static_cast<std::size_t>(exec_dom)]->voltage());

        if (inst->in.cls == InstClass::Branch &&
            handleBranchAtDispatch(inst)) {
            break;
        }
    }
    return FeStall::None;
}

McdProcessor::FrontEndCharge
McdProcessor::frontEndCharge(std::size_t rob_occupancy, FeStall stall,
                             bool active)
{
    return {static_cast<double>(rob_occupancy), stall,
            energy.clockJoules(DomainId::FrontEnd, domains[0]->voltage(),
                               active)};
}

void
McdProcessor::apply(const FrontEndCharge &c)
{
    ++feCycles;
    robOccupancySum += c.robOccupancy;
    if (c.stall != FeStall::None)
        ++feStalls[static_cast<std::size_t>(c.stall)];
    energy.charge(DomainId::FrontEnd, EnergyCategory::Clock, c.clockJoules);
}

void
McdProcessor::frontEndTick()
{
    const Tick now = curTick;
    unsigned retired = 0;
    unsigned dispatched = 0;

    const std::size_t rob_occupancy = reorderBuffer.occupancy();
    retireStage(now, retired);
    feParkStall = cfg.fiveDomainPartition
                      ? dispatchFromBuffer(now, dispatched)
                      : dispatchStage(now, dispatched);
    apply(frontEndCharge(rob_occupancy, feParkStall,
                         retired > 0 || dispatched > 0));

    if (maxInstructions != 0 &&
        reorderBuffer.retiredCount() >= maxInstructions) {
        done = true;
    }
    if (traceExhausted && !havePending && fetchBuffer.empty() &&
        reorderBuffer.empty()) {
        done = true;
    }
}

// --------------------------------------------------- 5-domain fetch stage

void
McdProcessor::fetchTick()
{
    const Tick now = curTick;
    ClockDomain &fd = *domains[static_cast<std::size_t>(DomainId::Fetch)];
    unsigned fetched = 0;

    // Resolution of a blocked mispredicted branch: once dispatch has
    // assigned it a sequence number, wait for its completion plus the
    // redirect penalty.
    if (fetchWaitingResolve && blockedBranchSeq != 0) {
        const Tick t = completion.readyTime(
            blockedBranchSeq, DomainId::Fetch, crossPenalty());
        if (t != maxTick) {
            const Tick resume =
                t + Tick(cfg.branchRedirectCycles) * fd.period();
            fetchStallUntil = std::max(fetchStallUntil, resume);
            fetchWaitingResolve = false;
            blockedBranchSeq = 0;
        }
    }

    if (!fetchWaitingResolve && now >= fetchStallUntil) {
        const Volt fv = fd.voltage();
        while (fetched < cfg.fetchWidth &&
               fetchBuffer.size() < cfg.fetchBufferSize) {
            if (!havePending) {
                if (traceExhausted || !src.next(pendingInst)) {
                    traceExhausted = true;
                    break;
                }
                havePending = true;
            }

            // Instruction-cache access, one per line change, charged
            // to the fetch domain.
            const Addr line = pendingInst.pc / cfg.memory.l1i.lineBytes;
            if (line != lastFetchLine) {
                const MemAccessResult res =
                    mem.fetchAccess(pendingInst.pc);
                lastFetchLine = line;
                energy.addEvent(DomainId::Fetch, EnergyCategory::Cache,
                                energy.config().l1AccessEnergy, fv);
                if (res.level != MemLevel::L1) {
                    energy.addEvent(DomainId::Fetch,
                                    EnergyCategory::Cache,
                                    energy.config().l2AccessEnergy, fv);
                    fetchStallUntil = now + res.beyondL1Latency;
                    break;
                }
            }

            FetchedInst fe;
            fe.in = pendingInst;
            havePending = false;
            // Settles mid-cycle, then synchronizes into the dispatch
            // domain.
            fe.visibleTime = now + fd.period() / 2 + crossPenalty();
            fe.mispredicted = false;
            energy.addEvent(DomainId::Fetch, EnergyCategory::Fetch,
                            energy.config().fetchPerInst, fv);

            if (fe.in.cls == InstClass::Branch &&
                evaluateBranch(fe.in)) {
                fe.mispredicted = true;
                fetchWaitingResolve = true;
                ++mispredicts;
            }
            fetchBuffer.push_back(fe);
            ++fetched;
            if (fe.mispredicted)
                break;
        }
    }
    energy.addClockCycle(DomainId::Fetch, fd.voltage(), fetched > 0);
}

McdProcessor::FeStall
McdProcessor::dispatchFromBuffer(Tick now, unsigned &dispatched_this_cycle)
{
    const Volt fe_volt = domains[0]->voltage();
    while (dispatched_this_cycle < cfg.fetchWidth &&
           !fetchBuffer.empty()) {
        const FetchedInst &fe = fetchBuffer.front();
        if (fe.visibleTime > now)
            break;
        if (reorderBuffer.full())
            return FeStall::RobFull;
        IssueQueue &q = queueFor(fe.in.cls);
        if (q.full())
            return FeStall::QueueFull;

        DynInst *inst = reorderBuffer.allocate();
        inst->in = fe.in;
        inst->seq = nextSeq++;

        const DomainId exec_dom = enqueue(*inst, q, now);
        ++dispatched_this_cycle;

        const auto &ec = energy.config();
        energy.addEvent(DomainId::FrontEnd, EnergyCategory::Rename,
                        ec.renamePerInst, fe_volt);
        energy.addEvent(DomainId::FrontEnd, EnergyCategory::Rob,
                        ec.robPerInst, fe_volt);
        energy.addEvent(
            exec_dom, EnergyCategory::IssueQueue, ec.iqWritePerInst,
            domains[static_cast<std::size_t>(exec_dom)]->voltage());

        if (fe.mispredicted) {
            inst->mispredicted = true;
            blockedBranchSeq = inst->seq;
        }
        fetchBuffer.pop_front();
    }
    return FeStall::None;
}

// ---------------------------------------------------------------- clusters

#if MCDSIM_DCHECK_IS_ON
void
McdProcessor::checkEligible(const DynInst &inst, DomainId dom, Tick now) const
{
    MCDSIM_DCHECK_EQ(inst.eligible > now,
                     inst.queueVisibleTime > now ||
                         srcReadyTime(inst, dom) > now,
                     "seq %llu: woken tick disagrees with the completion "
                     "table at %llu",
                     static_cast<unsigned long long>(inst.seq),
                     static_cast<unsigned long long>(now));
}

void
McdProcessor::checkSkippedSelect(const IssueQueue &queue, DomainId dom,
                                 Tick now) const
{
    // A replayed LS edge runs before the miss retirement of the next
    // real one: count what is still busy at now.
    const auto busy = std::count_if(outstandingMisses.begin(),
                                    outstandingMisses.end(),
                                    [now](Tick t) { return t > now; });
    const bool mshrs_full = static_cast<std::size_t>(busy) >= cfg.mshrCount;
    queue.forEachVisible(now, [&](DynInst *inst) {
        MCDSIM_DCHECK(srcReadyTime(*inst, dom) > now ||
                          (dom == DomainId::LoadStore &&
                           inst->in.cls == InstClass::Load && mshrs_full),
                      "%s: select memo skipped ready seq %llu at %llu",
                      queue.name().c_str(),
                      static_cast<unsigned long long>(inst->seq),
                      static_cast<unsigned long long>(now));
        return true;
    });
}
#endif

template <typename TryIssue, typename RetryAt>
unsigned
McdProcessor::select(std::size_t ctl, IssueQueue &queue, unsigned width,
                     TryIssue &&try_issue, RetryAt &&retry_at)
{
    const Tick now = curTick;
    [[maybe_unused]] const DomainId dom = controlledDomains[ctl];
    SelectMemo &memo = selectMemo[ctl];

    // Mid-transition: the cluster issues nothing this edge.
    if (drivers[ctl]->stalled(now))
        return 0;
    if (memo.holds(now, completion.epoch())) {
#if MCDSIM_DCHECK_IS_ON
        checkSkippedSelect(queue, dom, now);
#endif
        return 0;
    }

    std::uint32_t selected[16]{}; // scan positions, oldest first
    unsigned issued = 0;
    SelectMemo next{maxTick, 0};
    bool conclusive = true;
    // Asked once: nothing a scan does can free a unit or an MSHR.
    Tick retry = 0;
    bool retry_known = false;
    std::uint32_t pos = 0;
    queue.forEach([&](DynInst *inst) {
        const std::uint32_t at = pos++;
#if MCDSIM_DCHECK_IS_ON
        checkEligible(*inst, dom, now);
#endif
        // Not visible yet or operands pending: a producer still to
        // issue leaves maxTick, which adds nothing to the wake.
        if (inst->eligible > now) {
            next.wakeTick = std::min(next.wakeTick, inst->eligible);
            return true;
        }
        if (issued >= width || issued >= std::size(selected)) {
            conclusive = false; // stopped early: the scan proves nothing
            return false;
        }
        if (try_issue(inst)) {
            selected[issued++] = at;
            return true;
        }
        if (!retry_known) {
            retry = retry_at();
            retry_known = true;
        }
        if (retry > now)
            next.wakeTick = std::min(next.wakeTick, retry);
        else
            conclusive = false;
        return true;
    });
    queue.eraseAt(selected, issued);
    // Producers precede consumers in the oldest-first scan, so every
    // entry was read after this scan's own issues woke it.
    next.epoch = completion.epoch();
    memo = conclusive ? next : SelectMemo{};
    return issued;
}

void
McdProcessor::intTick()
{
    clusterTick(0, intQ, intFus, cfg.intIssueWidth);
}

void
McdProcessor::fpTick()
{
    clusterTick(1, fpQ, fpFus, cfg.fpIssueWidth);
}

void
McdProcessor::clusterTick(std::size_t ctl, IssueQueue &queue,
                          ClusterFus &fus, std::uint32_t width)
{
    const Tick now = curTick;
    const DomainId dom = controlledDomains[ctl];
    ClockDomain &d = *domains[static_cast<std::size_t>(dom)];

    const auto try_issue = [&](DynInst *inst) {
        FuPool &pool = fus.poolFor(inst->in.cls);
        if (!pool.available(now))
            return false;

        const unsigned lat = instLatency(inst->in.cls);
        const Tick complete = now + Tick(lat) * d.period();
        pool.acquire(now, ClusterFus::blocking(inst->in.cls)
                              ? complete
                              : now + d.period());
        completeInst(*inst, complete);

        const auto &ec = energy.config();
        const bool muldiv = &pool == &fus.muldiv;
        const double e = isFp(inst->in.cls)
                             ? (muldiv ? ec.fpMulDivOp : ec.fpAluOp)
                             : (muldiv ? ec.intMulDivOp : ec.intAluOp);
        energy.addEvent(dom, EnergyCategory::Execute, e, d.voltage());
        return true;
    };
    // A busy unit frees within a cycle or two: a refusal proves
    // nothing.
    const unsigned issued =
        select(ctl, queue, width, try_issue, [now] { return now; });
    apply(clusterCharge(dom, queue, issued > 0));
}

McdProcessor::ClusterCharge
McdProcessor::clusterCharge(DomainId dom, const IssueQueue &queue,
                            bool issued)
{
    const Volt v = domains[static_cast<std::size_t>(dom)]->voltage();
    ClusterCharge c{dom, queue.occupancy() > 0, 0.0, 0.0};
    if (c.queued) {
        c.wakeupJoules = energy.eventJoules(
            energy.config().iqWakeupPerEntry, v,
            static_cast<double>(queue.occupancy()));
    }
    c.clockJoules = energy.clockJoules(dom, v, issued || !queue.empty());
    return c;
}

void
McdProcessor::apply(const ClusterCharge &c)
{
    if (c.queued)
        energy.charge(c.dom, EnergyCategory::IssueQueue, c.wakeupJoules);
    energy.charge(c.dom, EnergyCategory::Clock, c.clockJoules);
}

void
McdProcessor::loadStoreTick()
{
    const Tick now = curTick;
    ClockDomain &d = *domains[static_cast<std::size_t>(DomainId::LoadStore)];

    // Retire completed misses from the MSHRs.
    std::erase_if(outstandingMisses, [now](Tick t) { return t <= now; });

    const auto &ec = energy.config();
    const auto try_issue = [&](DynInst *inst) {
        const bool is_load = inst->in.cls == InstClass::Load;
        if (is_load && outstandingMisses.size() >= cfg.mshrCount)
            return false; // no MSHR for a potential miss

        Tick complete;
        if (is_load) {
            const MemAccessResult res = mem.dataAccess(inst->in.addr);
            const Tick base = now + Tick(1 + cfg.l1dHitCycles) * d.period();
            energy.addEvent(DomainId::LoadStore, EnergyCategory::Cache,
                            ec.l1AccessEnergy, d.voltage());
            if (res.level != MemLevel::L1) {
                energy.addEvent(DomainId::LoadStore, EnergyCategory::Cache,
                                ec.l2AccessEnergy, d.voltage());
                complete = base + res.beyondL1Latency;
                outstandingMisses.push_back(complete);
                inst->l1dMiss = true;
            } else {
                complete = base;
            }
        } else {
            // Store: completes at address generation; the store
            // buffer hides the write latency. Tag access still
            // costs energy (write-allocate).
            mem.dataAccess(inst->in.addr);
            energy.addEvent(DomainId::LoadStore, EnergyCategory::Cache,
                            ec.l1AccessEnergy, d.voltage());
            complete = now + d.period();
        }

        completeInst(*inst, complete);
        return true;
    };
    // A load refused for want of an MSHR can issue once the first
    // outstanding miss completes.
    const auto mshr_free = [this] {
        return outstandingMisses.empty()
                   ? maxTick
                   : *std::min_element(outstandingMisses.begin(),
                                       outstandingMisses.end());
    };
    const unsigned issued =
        select(2, lsQ, cfg.lsIssueWidth, try_issue, mshr_free);
    apply(clusterCharge(DomainId::LoadStore, lsQ, issued > 0));
}

// ---------------------------------------------------------------- sampler

void
McdProcessor::samplerTick()
{
    const Tick now = curTick;
    const bool sample_trace = traceSink.wantsQueueSamples();
    const IssueQueue *queues[3] = {&intQ, &fpQ, &lsQ};
    for (std::size_t i = 0; i < 3; ++i) {
        const auto occ = static_cast<double>(queues[i]->occupancy());
        // A driver mid-ramp applies a new operating point: replay a
        // parked domain's edges at the old one first.
        if (drivers[i]->inTransition())
            catchUp(static_cast<std::size_t>(controlledDomains[i]), now,
                    samplerSlot);
        drivers[i]->sampleTick(now, occ);
        freqSum[i] += drivers[i]->currentHz();
        queueSum[i] += occ;
        if (cfg.recordTraces) {
            freqTraces[i].add(now, drivers[i]->currentHz() / 1e9);
            queueTraces[i].add(now, occ);
        }
        if (queueDists[i]) {
            queueDists[i]->add(occ);
            freqDists[i]->add(drivers[i]->currentHz() / 1e9);
        }
        if (sample_trace) {
            traceSink.queueSample(now, controlledDomains[i], occ,
                                  occ - cfg.qref[i]);
        }
        MCDSIM_TRACE(obs::DebugFlag::Sampler,
                     "t=%llu %s occ=%g f=%.4f GHz",
                     static_cast<unsigned long long>(now),
                     domainName(controlledDomains[i]), occ,
                     drivers[i]->currentHz() / 1e9);
    }
    ++sampleCount;
    slotTimes[samplerSlot] = now + samplingPeriod;
}

// ---------------------------------------------------------- parked domains

void
McdProcessor::catchUp(std::size_t d, Tick t, std::size_t slot)
{
    if (!((parkedMask >> d) & 1u))
        return;
    // Edges before (t, slot): at t itself only for a lower slot.
    const Tick end = d < slot ? t + 1 : t;
    ClockDomain &dom = *domains[d];
    if (dom.nextEdgeTime() >= end)
        return;
    const Tick now = curTick;
    const auto replay = [&](auto idle) {
        while (dom.nextEdgeTime() < end) {
            curTick = dom.nextEdgeTime();
            ++eventsProcessed;
            ++replayedEdges;
            dom.edge(idle);
        }
    };
    if (d == 0) {
        const FrontEndCharge c =
            frontEndCharge(reorderBuffer.occupancy(), feParkStall, false);
        replay([&] {
#if MCDSIM_DCHECK_IS_ON
            checkFrontEndIdle(curTick);
#endif
            apply(c);
        });
    } else {
        const std::size_t ctl = d - 1;
        const IssueQueue &q = clusterQueue(ctl);
        const ClusterCharge c = clusterCharge(controlledDomains[ctl], q, false);
        replay([&] {
#if MCDSIM_DCHECK_IS_ON
            if (!drivers[ctl]->stalled(curTick))
                checkSkippedSelect(q, c.dom, curTick);
#endif
            apply(c);
        });
    }
    curTick = now;
}

void
McdProcessor::tryPark(std::size_t d)
{
    if (d == numDomains - 1)
        return; // the fetch domain never parks
    const Tick next = slotTimes[d];
    const Tick wake_at =
        d == 0 ? frontEndParkWake() : clusterParkWake(d - 1, next);
    // A run of one idle edge costs more to park and replay than to
    // dispatch.
    if (wake_at <= next + domains[d]->period())
        return;
    parkedMask |= 1u << d;
    slotTimes[d] = wake_at;
}

Tick
McdProcessor::frontEndParkWake()
{
    // The 5-domain dispatch reads the fetch buffer, which the fetch
    // domain fills: that front end runs every edge.
    if (done || cfg.fiveDomainPartition || feParkStall == FeStall::None)
        return 0;
    // The edge that just ran stalled before any I-cache access or
    // generator call of its own, so the next ones stall the same way
    // until the cause ends: a completion-table write, or for a fetch
    // stall its end. They also retire nothing before the head is
    // visible.
    Tick wake_at = feParkStall == FeStall::Fetch ? fetchStallUntil : maxTick;
    if (!reorderBuffer.empty()) {
        const DynInst &head = *reorderBuffer.head();
        if (head.completeTime != maxTick)
            wake_at = std::min(wake_at, head.completeTime + crossPenalty());
    }
    return wake_at;
}

Tick
McdProcessor::clusterParkWake(std::size_t ctl, Tick next)
{
    const SelectMemo &memo = selectMemo[ctl];
    if (drivers[ctl]->stalled(next) || !memo.holds(next, completion.epoch()))
        return 0;
    return memo.wakeTick;
}

#if MCDSIM_DCHECK_IS_ON
void
McdProcessor::checkFrontEndIdle(Tick now) const
{
    if (!reorderBuffer.empty()) {
        const DynInst &head = *reorderBuffer.head();
        MCDSIM_DCHECK(head.completeTime == maxTick ||
                          head.completeTime + crossPenalty() > now,
                      "parked front end skipped a retire at %llu",
                      static_cast<unsigned long long>(now));
    }
    const bool fetch_ok = blockedBranchSeq == 0 && now >= fetchStallUntil &&
                          havePending &&
                          pendingInst.pc / cfg.memory.l1i.lineBytes ==
                              lastFetchLine;
    bool idle = false;
    switch (feParkStall) {
      case FeStall::Branch:
        idle = blockedBranchSeq != 0 &&
               completion.readyTime(blockedBranchSeq, DomainId::FrontEnd,
                                    crossPenalty()) == maxTick;
        break;
      case FeStall::Fetch:
        idle = blockedBranchSeq == 0 && now < fetchStallUntil;
        break;
      case FeStall::RobFull:
        idle = fetch_ok && reorderBuffer.full();
        break;
      case FeStall::QueueFull:
        idle = fetch_ok && !reorderBuffer.full() &&
               (isFp(pendingInst.cls)    ? fpQ.full()
                : isMem(pendingInst.cls) ? lsQ.full()
                                         : intQ.full());
        break;
      case FeStall::None: break;
    }
    MCDSIM_DCHECK(idle, "parked front end skipped work at %llu (stall %d)",
                  static_cast<unsigned long long>(now),
                  static_cast<int>(feParkStall));
}
#endif

// ---------------------------------------------------------------- run

void
McdProcessor::dispatch(std::size_t slot)
{
    MCDSIM_TRACE(obs::DebugFlag::EventQueue, "t=%llu dispatch %s prio=%d",
                 static_cast<unsigned long long>(curTick),
                 slot == samplerSlot ? "dvfs-sampler" : "clock-edge",
                 slot == samplerSlot ? 50 : static_cast<int>(slot));
    // Each edge moves only its own domain's next edge (an operating-
    // point change takes effect from the edge after the scheduled
    // one), so the other slots stay exact.
    const auto clock = [this, slot](auto work) {
        ClockDomain &dom = *domains[slot];
        dom.edge(work);
        slotTimes[slot] = dom.nextEdgeTime();
        if (parkingEnabled)
            tryPark(slot);
    };
    switch (slot) {
      case 0: clock([this] { frontEndTick(); }); break;
      case 1: clock([this] { intTick(); }); break;
      case 2: clock([this] { fpTick(); }); break;
      case 3: clock([this] { loadStoreTick(); }); break;
      case 4: clock([this] { fetchTick(); }); break;
      default: samplerTick(); break;
    }
}

SimResult
McdProcessor::run(std::uint64_t max_instructions)
{
    maxInstructions = max_instructions;

    // Watchdogs: the event budget is a pure function of the
    // simulation (trips identically everywhere); the cancel check is
    // an opt-in host-side poll, amortized over 1024 events.
    const std::uint64_t budget = cfg.eventBudget;
    const bool cancellable = static_cast<bool>(cfg.cancelCheck);
    std::uint64_t sinceCancelPoll = 0;

    while (!done) {
        const std::size_t slot = earliestSlot(slotTimes);
        MCDSIM_DCHECK_GE(slotTimes[slot], curTick, "time ran backwards");
        if ((parkedMask >> slot) & 1u) {
            // A parked domain's wake tick: replay the edges before it,
            // then let its real next edge compete again.
            catchUp(slot, slotTimes[slot], slot);
            resume(slot);
            continue;
        }
        curTick = slotTimes[slot];
        curSlot = slot;
        ++eventsProcessed;
        dispatch(slot);
        // The fired slot moves strictly past now, which is what makes
        // lowest-slot-first equal the old (when, priority, seq) order.
        MCDSIM_DCHECK_GT(slotTimes[slot], curTick, "slot %zu refired at %llu",
                         slot, static_cast<unsigned long long>(curTick));
        if (budget != 0 && eventsProcessed >= budget && !done) {
            throw SimError("event-budget",
                           "run exceeded its event budget of " +
                               std::to_string(budget) + " events at tick " +
                               std::to_string(curTick));
        }
        if (cancellable && (++sinceCancelPoll & 0x3ff) == 0 &&
            cfg.cancelCheck()) {
            catchUpAll();
            throw SimError("deadline",
                           "run cancelled by deadline at tick " +
                               std::to_string(curTick) + " after " +
                               std::to_string(eventsProcessed) +
                               " events");
        }
    }
    // The run ends after the front-end edge that set done: no edge at
    // or after (curTick, curSlot) ran, parked or not.
    catchUpAll();
    finalizeEnergy();
    return collectResult();
}

void
McdProcessor::finalizeEnergy()
{
    for (std::size_t d = 0; d < domains.size(); ++d) {
        domains[d]->accrueVoltageTime();
        energy.addLeakage(static_cast<DomainId>(d),
                          domains[d]->voltSquaredSeconds());
    }
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::uint64_t t = 0; t < drivers[i]->transitionCount(); ++t)
            energy.addRegulatorTransition(controlledDomains[i]);
    }
    MCDSIM_TRACE(obs::DebugFlag::Energy, "t=%llu total energy %.6g J",
                 static_cast<unsigned long long>(curTick),
                 energy.totalEnergy());
}

SimResult
McdProcessor::collectResult()
{
    SimResult r;
    r.benchmark = src.name();
    r.controller = controllers[0]->name();
    r.instructions = reorderBuffer.retiredCount();
    r.wallTicks = curTick;
    r.eventsProcessed = eventsProcessed;
    r.energy = energy.totalEnergy();

    for (std::size_t i = 0; i < 3; ++i) {
        DomainResult &dr = r.domains[i];
        if (sampleCount > 0) {
            dr.avgFrequency =
                freqSum[i] / static_cast<double>(sampleCount);
            dr.avgQueueOccupancy =
                queueSum[i] / static_cast<double>(sampleCount);
        }
        dr.transitions = drivers[i]->transitionCount();
        dr.controllerStats = controllers[i]->stats();
        dr.energy = energy.domainEnergy(controlledDomains[i]);
    }

    for (std::size_t d = 0; d < numDomains; ++d) {
        for (std::size_t c = 0; c < numEnergyCategories; ++c) {
            r.energyBreakdown[d][c] =
                energy.cell(static_cast<DomainId>(d),
                            static_cast<EnergyCategory>(c));
        }
    }

    r.feCycles = feCycles;
    r.feCyclesFetchStalled = feStalls[static_cast<std::size_t>(FeStall::Fetch)];
    r.feCyclesBranchBlocked =
        feStalls[static_cast<std::size_t>(FeStall::Branch)];
    r.feCyclesRobFull = feStalls[static_cast<std::size_t>(FeStall::RobFull)];
    r.feCyclesQueueFull =
        feStalls[static_cast<std::size_t>(FeStall::QueueFull)];
    r.avgRobOccupancy =
        feCycles ? robOccupancySum / static_cast<double>(feCycles) : 0.0;

    r.branchDirectionAccuracy = bpred.directionAccuracy();
    r.l1dMissRate = mem.l1d().missRate();
    r.l2MissRate = mem.l2().missRate();
    r.syncCrossings = sync.crossingCount();
    r.syncPenalties = sync.penaltyCount();

    // Render observability artifacts last: every stat callback and the
    // energy totals are final by now (finalizeEnergy already ran).
    if (cfg.collectStats) {
        r.statsText = statsReg.renderText();
        r.statsJson = statsReg.renderJson();
    }
    if (traceSink.enabled())
        r.traceJson = traceSink.renderJson();

    if (cfg.recordTraces) {
        r.intFreqTrace = std::move(freqTraces[0]);
        r.fpFreqTrace = std::move(freqTraces[1]);
        r.lsFreqTrace = std::move(freqTraces[2]);
        r.intQueueTrace = std::move(queueTraces[0]);
        r.fpQueueTrace = std::move(queueTraces[1]);
        r.lsQueueTrace = std::move(queueTraces[2]);
    }
    return r;
}

} // namespace mcd
