#include "core/run_spec.hh"

#include "common/digest.hh"
#include "common/record.hh"

namespace mcd
{

const char *
runKindName(RunKind kind)
{
    switch (kind) {
      case RunKind::Scheme: return "scheme";
      case RunKind::McdBaseline: return "mcd-baseline";
      case RunKind::SyncBaseline: return "sync-baseline";
    }
    return "?";
}

RunSpec
schemeSpec(std::string benchmark, ControllerKind controller,
           const RunOptions &opts)
{
    RunSpec s;
    s.benchmark = std::move(benchmark);
    s.kind = RunKind::Scheme;
    s.controller = controller;
    s.seed = opts.seed;
    s.options = opts;
    return s;
}

RunSpec
mcdBaselineSpec(std::string benchmark, const RunOptions &opts)
{
    RunSpec s = schemeSpec(std::move(benchmark), ControllerKind::Fixed,
                           opts);
    s.kind = RunKind::McdBaseline;
    return s;
}

RunSpec
syncBaselineSpec(std::string benchmark, const RunOptions &opts)
{
    RunSpec s = schemeSpec(std::move(benchmark), ControllerKind::Fixed,
                           opts);
    s.kind = RunKind::SyncBaseline;
    return s;
}

std::string
runLabel(RunKind kind, ControllerKind controller)
{
    return kind == RunKind::Scheme ? controllerKindName(controller)
                                   : runKindName(kind);
}

SimConfig
resolveConfig(RunKind kind, ControllerKind controller, std::uint64_t seed,
              const RunOptions &opts)
{
    SimConfig cfg = opts.config;
    cfg.seed = seed;
    cfg.recordTraces = opts.recordTraces;
    cfg.collectStats = opts.collectStats;
    cfg.trace = opts.trace;
    switch (kind) {
      case RunKind::Scheme:
        cfg.controller = controller;
        if (controller != ControllerKind::Fixed)
            cfg.mcdEnabled = true;
        break;
      case RunKind::McdBaseline:
        cfg.controller = ControllerKind::Fixed;
        cfg.mcdEnabled = true;
        break;
      case RunKind::SyncBaseline:
        cfg.controller = ControllerKind::Fixed;
        cfg.mcdEnabled = false;
        cfg.jitterEnabled = false;
        break;
    }
    // Give fault specs a scheme label to match against (the run
    // label, which is also what reports print).
    if (cfg.faults && cfg.faultScheme.empty())
        cfg.faultScheme = runLabel(kind, controller);
    return cfg;
}

SimConfig
resolveConfig(const RunSpec &spec)
{
    return resolveConfig(spec.kind, spec.controller, spec.seed,
                         spec.options);
}

std::string
canonicalText(const RunSpec &spec, std::uint32_t schemaVersion)
{
    // Canonicalize the *resolved* run: the kind-implied overrides are
    // baked in, so e.g. a leftover controller field on a baseline spec
    // (not semantic — baselines always pin ControllerKind::Fixed)
    // cannot split the cache key.
    const SimConfig cfg = resolveConfig(spec);
    const RunOptions &opts = spec.options;

    RecordWriter w;
    w.text("format", "mcdsim-runspec");
    w.u64("schema", schemaVersion);

    w.text("benchmark", spec.benchmark);
    w.text("kind", runKindName(spec.kind));
    w.text("controller", controllerKindName(cfg.controller));
    w.u64("seed", cfg.seed);
    w.u64("instructions", opts.instructions);

    // Pipeline.
    w.u64("cfg.fetch_width", cfg.fetchWidth);
    w.u64("cfg.retire_width", cfg.retireWidth);
    w.u64("cfg.rob_size", cfg.robSize);
    w.u64("cfg.int_queue_size", cfg.intQueueSize);
    w.u64("cfg.fp_queue_size", cfg.fpQueueSize);
    w.u64("cfg.ls_queue_size", cfg.lsQueueSize);
    w.u64("cfg.int_issue_width", cfg.intIssueWidth);
    w.u64("cfg.fp_issue_width", cfg.fpIssueWidth);
    w.u64("cfg.ls_issue_width", cfg.lsIssueWidth);
    w.u64("cfg.int_alus", cfg.intAlus);
    w.u64("cfg.fp_alus", cfg.fpAlus);
    w.u64("cfg.mshr_count", cfg.mshrCount);
    w.u64("cfg.l1d_hit_cycles", cfg.l1dHitCycles);
    w.u64("cfg.branch_redirect_cycles", cfg.branchRedirectCycles);

    // Branch predictor.
    w.u64("cfg.predictor.bimodal_entries", cfg.predictor.bimodalEntries);
    w.u64("cfg.predictor.l1_entries", cfg.predictor.l1Entries);
    w.u64("cfg.predictor.history_bits", cfg.predictor.historyBits);
    w.u64("cfg.predictor.l2_entries", cfg.predictor.l2Entries);
    w.u64("cfg.predictor.chooser_entries", cfg.predictor.chooserEntries);
    w.u64("cfg.predictor.btb_sets", cfg.predictor.btbSets);
    w.u64("cfg.predictor.btb_assoc", cfg.predictor.btbAssoc);

    // Memory hierarchy.
    const auto cache = [&w](const char *prefix, const Cache::Config &c) {
        std::string base = std::string("cfg.memory.") + prefix;
        w.u64(base + ".size_kb", c.sizeKb);
        w.u64(base + ".assoc", c.assoc);
        w.u64(base + ".line_bytes", c.lineBytes);
    };
    cache("l1i", cfg.memory.l1i);
    cache("l1d", cfg.memory.l1d);
    cache("l2", cfg.memory.l2);
    w.f64("cfg.memory.l2_latency_ns", cfg.memory.l2LatencyNs);
    w.f64("cfg.memory.mem_first_chunk_ns", cfg.memory.memFirstChunkNs);
    w.f64("cfg.memory.mem_inter_chunk_ns", cfg.memory.memInterChunkNs);
    w.u64("cfg.memory.chunks_per_line", cfg.memory.chunksPerLine);

    // Clocking and MCD.
    w.f64("cfg.vf.f_min", cfg.vfRange.fMin);
    w.f64("cfg.vf.f_max", cfg.vfRange.fMax);
    w.f64("cfg.vf.v_min", cfg.vfRange.vMin);
    w.f64("cfg.vf.v_max", cfg.vfRange.vMax);
    w.u64("cfg.vf.steps", cfg.vfRange.steps);
    w.f64("cfg.dvfs.ns_per_mhz", cfg.dvfsModel.nsPerMhz);
    w.u64("cfg.dvfs.stall_time", cfg.dvfsModel.stallTime);
    w.f64("cfg.sampling_rate", cfg.samplingRate);
    w.u64("cfg.sync_window", cfg.syncWindow);
    w.u64("cfg.jitter_enabled", cfg.jitterEnabled);
    w.u64("cfg.mcd_enabled", cfg.mcdEnabled);
    w.u64("cfg.five_domain_partition", cfg.fiveDomainPartition);
    w.u64("cfg.fetch_buffer_size", cfg.fetchBufferSize);

    // DVFS control.
    for (std::size_t i = 0; i < cfg.qref.size(); ++i) {
        const std::string key = "cfg.qref." + std::to_string(i);
        w.f64(key, cfg.qref[i]);
    }
    for (std::size_t i = 0; i < cfg.controlDomain.size(); ++i) {
        const std::string key =
            "cfg.control_domain." + std::to_string(i);
        w.u64(key, cfg.controlDomain[i]);
    }
    w.f64("cfg.adaptive.qref", cfg.adaptive.qref);
    w.f64("cfg.adaptive.level_deviation_window",
          cfg.adaptive.levelDeviationWindow);
    w.f64("cfg.adaptive.delta_deviation_window",
          cfg.adaptive.deltaDeviationWindow);
    w.f64("cfg.adaptive.level_delay", cfg.adaptive.levelDelay);
    w.f64("cfg.adaptive.delta_delay", cfg.adaptive.deltaDelay);
    w.f64("cfg.adaptive.level_signal_scale",
          cfg.adaptive.levelSignalScale);
    w.f64("cfg.adaptive.delta_signal_scale",
          cfg.adaptive.deltaSignalScale);
    w.u64("cfg.adaptive.steps_per_action", cfg.adaptive.stepsPerAction);
    w.u64("cfg.adaptive.combine_simultaneous_actions",
          cfg.adaptive.combineSimultaneousActions);
    w.u64("cfg.adaptive.scale_down_delay_by_frequency",
          cfg.adaptive.scaleDownDelayByFrequency);
    w.u64("cfg.adaptive.freeze_while_switching",
          cfg.adaptive.freezeWhileSwitching);
    w.f64("cfg.pid.qref", cfg.pid.qref);
    w.u64("cfg.pid.interval_samples", cfg.pid.intervalSamples);
    w.f64("cfg.pid.kp", cfg.pid.kp);
    w.f64("cfg.pid.ki", cfg.pid.ki);
    w.f64("cfg.pid.kd", cfg.pid.kd);
    w.f64("cfg.pid.deadzone", cfg.pid.deadzone);
    w.u64("cfg.attack_decay.interval_samples",
          cfg.attackDecay.intervalSamples);
    w.f64("cfg.attack_decay.attack_threshold",
          cfg.attackDecay.attackThreshold);
    w.f64("cfg.attack_decay.attack_fraction",
          cfg.attackDecay.attackFraction);
    w.f64("cfg.attack_decay.decay_fraction",
          cfg.attackDecay.decayFraction);
    w.f64("cfg.attack_decay.emergency_fraction",
          cfg.attackDecay.emergencyFraction);
    w.f64("cfg.attack_decay.queue_capacity",
          cfg.attackDecay.queueCapacity);

    // Host-bound callables have no canonical form; their presence is
    // recorded (so it perturbs the digest) and blocks cacheable().
    w.u64("cfg.custom_controller",
          static_cast<bool>(cfg.customController));
    w.u64("cfg.cancel_check", static_cast<bool>(cfg.cancelCheck));

    // Energy model.
    w.f64("cfg.energy.v_nominal", cfg.energy.vNominal);
    w.f64("cfg.energy.fetch_per_inst", cfg.energy.fetchPerInst);
    w.f64("cfg.energy.rename_per_inst", cfg.energy.renamePerInst);
    w.f64("cfg.energy.rob_per_inst", cfg.energy.robPerInst);
    w.f64("cfg.energy.iq_write_per_inst", cfg.energy.iqWritePerInst);
    w.f64("cfg.energy.iq_wakeup_per_entry", cfg.energy.iqWakeupPerEntry);
    w.f64("cfg.energy.int_alu_op", cfg.energy.intAluOp);
    w.f64("cfg.energy.int_mul_div_op", cfg.energy.intMulDivOp);
    w.f64("cfg.energy.fp_alu_op", cfg.energy.fpAluOp);
    w.f64("cfg.energy.fp_mul_div_op", cfg.energy.fpMulDivOp);
    w.f64("cfg.energy.l1_access", cfg.energy.l1AccessEnergy);
    w.f64("cfg.energy.l2_access", cfg.energy.l2AccessEnergy);
    w.f64("cfg.energy.retire_per_inst", cfg.energy.retirePerInst);
    for (std::size_t i = 0; i < cfg.energy.clockPerCycle.size(); ++i) {
        const std::string key =
            "cfg.energy.clock_per_cycle." + std::to_string(i);
        w.f64(key, cfg.energy.clockPerCycle[i]);
    }
    w.f64("cfg.energy.gated_clock_fraction",
          cfg.energy.gatedClockFraction);
    for (std::size_t i = 0; i < cfg.energy.leakagePerV2.size(); ++i) {
        const std::string key =
            "cfg.energy.leakage_per_v2." + std::to_string(i);
        w.f64(key, cfg.energy.leakagePerV2[i]);
    }
    w.f64("cfg.energy.regulator_per_transition",
          cfg.energy.regulatorPerTransition);

    // Fault plan, in canonical form (a fixed point across parses, so
    // key reordering inside a spec string cannot split the key).
    w.text("cfg.faults", cfg.faults ? cfg.faults->canonical() : "-");
    // Every run is one attempt. The key stays, rendered as 1, so no
    // digest moves; the next kRunSpecSchemaVersion bump drops it.
    w.u64("cfg.fault_attempt", 1);
    w.text("cfg.fault_benchmark", cfg.faultBenchmark);
    w.text("cfg.fault_scheme", cfg.faultScheme);
    w.u64("cfg.event_budget", cfg.eventBudget);

    // Observability switches change which artifacts the SimResult
    // carries, so they are part of what a cache entry stores.
    w.u64("cfg.record_traces", cfg.recordTraces);
    w.u64("cfg.trace_stride", cfg.traceStride);
    w.u64("cfg.collect_stats", cfg.collectStats);
    w.u64("cfg.trace.enabled", cfg.trace.enabled);
    w.u64("cfg.trace.clock_edges", cfg.trace.clockEdges);
    w.u64("cfg.trace.operating_points", cfg.trace.operatingPoints);
    w.u64("cfg.trace.decisions", cfg.trace.decisions);
    w.u64("cfg.trace.queue_samples", cfg.trace.queueSamples);

    return w.take();
}

std::string
specDigest(const RunSpec &spec)
{
    return sha256Hex(canonicalText(spec));
}

bool
cacheable(const RunSpec &spec)
{
    return !spec.options.config.customController &&
           !spec.options.config.cancelCheck;
}

} // namespace mcd
