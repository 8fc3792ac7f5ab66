#include "core/run_spec.hh"

#include <bit>
#include <cinttypes>
#include <cstdio>

#include "common/check.hh"
#include "common/digest.hh"
#include "core/mcd_processor.hh"
#include "workload/benchmarks.hh"

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
    switch (kind) {
      case RunKind::Scheme:
        return controllerKindName(controller);
      case RunKind::McdBaseline:
        return "mcd-baseline";
      case RunKind::SyncBaseline:
        return "sync-baseline";
    }
    panic("unknown run kind %d", static_cast<int>(kind));
}

namespace
{

/** The kind-implied overrides, shared by resolveConfig and run(). */
SimConfig
resolveConfigParts(RunKind kind, ControllerKind controller,
                   std::uint64_t seed, const RunOptions &opts,
                   const char *label)
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
        cfg.faultScheme = label;
    return cfg;
}

const char *
labelParts(RunKind kind, ControllerKind controller)
{
    switch (kind) {
      case RunKind::Scheme:
        return controllerKindName(controller);
      case RunKind::McdBaseline:
        return "mcd-baseline";
      case RunKind::SyncBaseline:
        return "sync-baseline";
    }
    panic("unknown run kind %d", static_cast<int>(kind));
}

} // namespace

SimConfig
resolveConfig(const RunSpec &spec)
{
    return resolveConfigParts(spec.kind, spec.controller, spec.seed,
                              spec.options,
                              labelParts(spec.kind, spec.controller));
}

SimResult
run(const std::string &benchmark, RunKind kind, ControllerKind controller,
    std::uint64_t seed, const RunOptions &options)
{
    const char *label = labelParts(kind, controller);
    const SimConfig cfg =
        resolveConfigParts(kind, controller, seed, options, label);
    auto source = makeBenchmark(benchmark, options.instructions, cfg.seed);
    McdProcessor proc(cfg, *source);
    SimResult r = proc.run(options.instructions);
    r.controller = label;
    return r;
}

// ---- Canonical serialization ------------------------------------------

namespace
{

/**
 * Renders `key=value` lines into a growing buffer. Doubles render as
 * the hex of their IEEE-754 bit pattern: bit-for-bit unambiguous and
 * independent of any libc float-formatting choice, which is the whole
 * point of a canonical form (two specs compare equal iff they run the
 * same simulation).
 */
class CanonicalWriter
{
  public:
    void
    kv(const char *key, std::uint64_t value)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
        line(key, buf);
    }

    void kv(const char *key, std::uint32_t value)
    {
        kv(key, static_cast<std::uint64_t>(value));
    }

    void kv(const char *key, int value)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%d", value);
        line(key, buf);
    }

    void kv(const char *key, bool value) { line(key, value ? "1" : "0"); }

    void
    kvF(const char *key, double value)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "f64:%016" PRIx64,
                      std::bit_cast<std::uint64_t>(value));
        line(key, buf);
    }

    void
    kvS(const char *key, const std::string &value)
    {
        std::string escaped;
        escaped.reserve(value.size());
        for (char c : value) {
            if (c == '\\')
                escaped += "\\\\";
            else if (c == '\n')
                escaped += "\\n";
            else
                escaped.push_back(c);
        }
        line(key, escaped.c_str());
    }

    std::string take() { return std::move(out); }

  private:
    void
    line(const char *key, const char *value)
    {
        out += key;
        out += '=';
        out += value;
        out += '\n';
    }

    std::string out;
};

} // namespace

std::string
canonicalText(const RunSpec &spec, std::uint32_t schemaVersion)
{
    // Canonicalize the *resolved* run: the kind-implied overrides are
    // baked in, so e.g. a leftover controller field on a baseline spec
    // (not semantic — baselines always pin ControllerKind::Fixed)
    // cannot split the cache key.
    const SimConfig cfg = resolveConfig(spec);
    const RunOptions &opts = spec.options;

    CanonicalWriter w;
    w.kvS("format", "mcdsim-runspec");
    w.kv("schema", schemaVersion);

    w.kvS("benchmark", spec.benchmark);
    w.kvS("kind", runKindName(spec.kind));
    w.kvS("controller", controllerKindName(cfg.controller));
    w.kv("seed", cfg.seed);
    w.kv("instructions", opts.instructions);

    // Pipeline.
    w.kv("cfg.fetch_width", cfg.fetchWidth);
    w.kv("cfg.retire_width", cfg.retireWidth);
    w.kv("cfg.rob_size", cfg.robSize);
    w.kv("cfg.int_queue_size", cfg.intQueueSize);
    w.kv("cfg.fp_queue_size", cfg.fpQueueSize);
    w.kv("cfg.ls_queue_size", cfg.lsQueueSize);
    w.kv("cfg.int_issue_width", cfg.intIssueWidth);
    w.kv("cfg.fp_issue_width", cfg.fpIssueWidth);
    w.kv("cfg.ls_issue_width", cfg.lsIssueWidth);
    w.kv("cfg.int_alus", cfg.intAlus);
    w.kv("cfg.fp_alus", cfg.fpAlus);
    w.kv("cfg.mshr_count", cfg.mshrCount);
    w.kv("cfg.l1d_hit_cycles", cfg.l1dHitCycles);
    w.kv("cfg.branch_redirect_cycles", cfg.branchRedirectCycles);

    // Branch predictor.
    w.kv("cfg.predictor.bimodal_entries", cfg.predictor.bimodalEntries);
    w.kv("cfg.predictor.l1_entries", cfg.predictor.l1Entries);
    w.kv("cfg.predictor.history_bits", cfg.predictor.historyBits);
    w.kv("cfg.predictor.l2_entries", cfg.predictor.l2Entries);
    w.kv("cfg.predictor.chooser_entries", cfg.predictor.chooserEntries);
    w.kv("cfg.predictor.btb_sets", cfg.predictor.btbSets);
    w.kv("cfg.predictor.btb_assoc", cfg.predictor.btbAssoc);

    // Memory hierarchy.
    const auto cache = [&w](const char *prefix, const Cache::Config &c) {
        std::string base = std::string("cfg.memory.") + prefix;
        w.kv((base + ".size_kb").c_str(), c.sizeKb);
        w.kv((base + ".assoc").c_str(), c.assoc);
        w.kv((base + ".line_bytes").c_str(), c.lineBytes);
    };
    cache("l1i", cfg.memory.l1i);
    cache("l1d", cfg.memory.l1d);
    cache("l2", cfg.memory.l2);
    w.kvF("cfg.memory.l2_latency_ns", cfg.memory.l2LatencyNs);
    w.kvF("cfg.memory.mem_first_chunk_ns", cfg.memory.memFirstChunkNs);
    w.kvF("cfg.memory.mem_inter_chunk_ns", cfg.memory.memInterChunkNs);
    w.kv("cfg.memory.chunks_per_line", cfg.memory.chunksPerLine);

    // Clocking and MCD.
    w.kvF("cfg.vf.f_min", cfg.vfRange.fMin);
    w.kvF("cfg.vf.f_max", cfg.vfRange.fMax);
    w.kvF("cfg.vf.v_min", cfg.vfRange.vMin);
    w.kvF("cfg.vf.v_max", cfg.vfRange.vMax);
    w.kv("cfg.vf.steps", cfg.vfRange.steps);
    w.kvF("cfg.dvfs.ns_per_mhz", cfg.dvfsModel.nsPerMhz);
    w.kv("cfg.dvfs.stall_time", cfg.dvfsModel.stallTime);
    w.kvF("cfg.sampling_rate", cfg.samplingRate);
    w.kv("cfg.sync_window", cfg.syncWindow);
    w.kv("cfg.jitter_enabled", cfg.jitterEnabled);
    w.kv("cfg.mcd_enabled", cfg.mcdEnabled);
    w.kv("cfg.five_domain_partition", cfg.fiveDomainPartition);
    w.kv("cfg.fetch_buffer_size", cfg.fetchBufferSize);

    // DVFS control.
    for (std::size_t i = 0; i < cfg.qref.size(); ++i) {
        const std::string key = "cfg.qref." + std::to_string(i);
        w.kvF(key.c_str(), cfg.qref[i]);
    }
    for (std::size_t i = 0; i < cfg.controlDomain.size(); ++i) {
        const std::string key =
            "cfg.control_domain." + std::to_string(i);
        w.kv(key.c_str(), cfg.controlDomain[i]);
    }
    w.kvF("cfg.adaptive.qref", cfg.adaptive.qref);
    w.kvF("cfg.adaptive.level_deviation_window",
          cfg.adaptive.levelDeviationWindow);
    w.kvF("cfg.adaptive.delta_deviation_window",
          cfg.adaptive.deltaDeviationWindow);
    w.kvF("cfg.adaptive.level_delay", cfg.adaptive.levelDelay);
    w.kvF("cfg.adaptive.delta_delay", cfg.adaptive.deltaDelay);
    w.kvF("cfg.adaptive.level_signal_scale",
          cfg.adaptive.levelSignalScale);
    w.kvF("cfg.adaptive.delta_signal_scale",
          cfg.adaptive.deltaSignalScale);
    w.kv("cfg.adaptive.steps_per_action", cfg.adaptive.stepsPerAction);
    w.kv("cfg.adaptive.combine_simultaneous_actions",
         cfg.adaptive.combineSimultaneousActions);
    w.kv("cfg.adaptive.scale_down_delay_by_frequency",
         cfg.adaptive.scaleDownDelayByFrequency);
    w.kv("cfg.adaptive.freeze_while_switching",
         cfg.adaptive.freezeWhileSwitching);
    w.kvF("cfg.pid.qref", cfg.pid.qref);
    w.kv("cfg.pid.interval_samples", cfg.pid.intervalSamples);
    w.kvF("cfg.pid.kp", cfg.pid.kp);
    w.kvF("cfg.pid.ki", cfg.pid.ki);
    w.kvF("cfg.pid.kd", cfg.pid.kd);
    w.kvF("cfg.pid.deadzone", cfg.pid.deadzone);
    w.kv("cfg.attack_decay.interval_samples",
         cfg.attackDecay.intervalSamples);
    w.kvF("cfg.attack_decay.attack_threshold",
          cfg.attackDecay.attackThreshold);
    w.kvF("cfg.attack_decay.attack_fraction",
          cfg.attackDecay.attackFraction);
    w.kvF("cfg.attack_decay.decay_fraction",
          cfg.attackDecay.decayFraction);
    w.kvF("cfg.attack_decay.emergency_fraction",
          cfg.attackDecay.emergencyFraction);
    w.kvF("cfg.attack_decay.queue_capacity",
          cfg.attackDecay.queueCapacity);

    // Host-bound callables have no canonical form; their presence is
    // recorded (so it perturbs the digest) and blocks cacheable().
    w.kv("cfg.custom_controller",
         static_cast<bool>(cfg.customController));
    w.kv("cfg.cancel_check", static_cast<bool>(cfg.cancelCheck));

    // Energy model.
    w.kvF("cfg.energy.v_nominal", cfg.energy.vNominal);
    w.kvF("cfg.energy.fetch_per_inst", cfg.energy.fetchPerInst);
    w.kvF("cfg.energy.rename_per_inst", cfg.energy.renamePerInst);
    w.kvF("cfg.energy.rob_per_inst", cfg.energy.robPerInst);
    w.kvF("cfg.energy.iq_write_per_inst", cfg.energy.iqWritePerInst);
    w.kvF("cfg.energy.iq_wakeup_per_entry", cfg.energy.iqWakeupPerEntry);
    w.kvF("cfg.energy.int_alu_op", cfg.energy.intAluOp);
    w.kvF("cfg.energy.int_mul_div_op", cfg.energy.intMulDivOp);
    w.kvF("cfg.energy.fp_alu_op", cfg.energy.fpAluOp);
    w.kvF("cfg.energy.fp_mul_div_op", cfg.energy.fpMulDivOp);
    w.kvF("cfg.energy.l1_access", cfg.energy.l1AccessEnergy);
    w.kvF("cfg.energy.l2_access", cfg.energy.l2AccessEnergy);
    w.kvF("cfg.energy.retire_per_inst", cfg.energy.retirePerInst);
    for (std::size_t i = 0; i < cfg.energy.clockPerCycle.size(); ++i) {
        const std::string key =
            "cfg.energy.clock_per_cycle." + std::to_string(i);
        w.kvF(key.c_str(), cfg.energy.clockPerCycle[i]);
    }
    w.kvF("cfg.energy.gated_clock_fraction",
          cfg.energy.gatedClockFraction);
    for (std::size_t i = 0; i < cfg.energy.leakagePerV2.size(); ++i) {
        const std::string key =
            "cfg.energy.leakage_per_v2." + std::to_string(i);
        w.kvF(key.c_str(), cfg.energy.leakagePerV2[i]);
    }
    w.kvF("cfg.energy.regulator_per_transition",
          cfg.energy.regulatorPerTransition);

    // Fault plan, in canonical form (a fixed point across parses, so
    // key reordering inside a spec string cannot split the key).
    w.kvS("cfg.faults", cfg.faults ? cfg.faults->canonical() : "-");
    w.kv("cfg.fault_attempt", cfg.faultAttempt);
    w.kvS("cfg.fault_benchmark", cfg.faultBenchmark);
    w.kvS("cfg.fault_scheme", cfg.faultScheme);
    w.kv("cfg.event_budget", cfg.eventBudget);

    // Observability switches change which artifacts the SimResult
    // carries, so they are part of what a cache entry stores.
    w.kv("cfg.record_traces", cfg.recordTraces);
    w.kv("cfg.trace_stride", cfg.traceStride);
    w.kv("cfg.collect_stats", cfg.collectStats);
    w.kv("cfg.trace.enabled", cfg.trace.enabled);
    w.kv("cfg.trace.clock_edges", cfg.trace.clockEdges);
    w.kv("cfg.trace.operating_points", cfg.trace.operatingPoints);
    w.kv("cfg.trace.decisions", cfg.trace.decisions);
    w.kv("cfg.trace.queue_samples", cfg.trace.queueSamples);

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
