/**
 * @file
 * Top-level simulation configuration, defaulted to Table 1 of the
 * paper.
 *
 * Where the paper's text and Table 1 disagree, the prose of Section
 * 5.1 wins (see DESIGN.md): T_l0 = 8 rather than the table's evident
 * typo "0", and q_ref = 6 for the INT domain rather than 7.
 */

#ifndef MCDSIM_CORE_SIM_CONFIG_HH
#define MCDSIM_CORE_SIM_CONFIG_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "arch/branch_predictor.hh"
#include "common/types.hh"
#include "dvfs/adaptive_controller.hh"
#include "dvfs/attack_decay_controller.hh"
#include "dvfs/controller.hh"
#include "dvfs/dvfs_model.hh"
#include "dvfs/pid_controller.hh"
#include "dvfs/vf_curve.hh"
#include "fault/fault_plan.hh"
#include "mem/memory_system.hh"
#include "obs/trace_sink.hh"
#include "power/energy_model.hh"

namespace mcd
{

/** Which decision scheme drives the controlled domains. */
enum class ControllerKind : std::uint8_t
{
    Fixed,       ///< no DVFS: every domain pinned at f_max (baseline)
    Adaptive,    ///< the paper's adaptive-reaction-time scheme
    Pid,         ///< fixed-interval PID of [23]
    AttackDecay, ///< fixed-interval attack/decay of [9]
    Custom,      ///< user-supplied factory (SimConfig::customController)
};

/** Scheme name for reports. */
const char *controllerKindName(ControllerKind kind);

/**
 * Inverse of controllerKindName(), plus "pid" for Pid. Custom has no
 * spelling (it needs a factory); any other name throws ConfigError at
 * @p site.
 */
ControllerKind parseControllerKind(const std::string &name,
                                   const char *site);

/** Complete configuration of one simulation. */
struct SimConfig
{
    // ---- Pipeline (Table 1) ------------------------------------
    std::uint32_t fetchWidth = 4;   ///< decode width 4
    std::uint32_t retireWidth = 11; ///< retire width 11
    std::uint32_t robSize = 80;

    std::uint32_t intQueueSize = 20;
    std::uint32_t fpQueueSize = 16;
    std::uint32_t lsQueueSize = 16;

    /** Per-cluster issue widths (the paper's global issue width 6). */
    std::uint32_t intIssueWidth = 4;
    std::uint32_t fpIssueWidth = 2;
    std::uint32_t lsIssueWidth = 2;

    std::uint32_t intAlus = 4; ///< + 1 mult/div unit
    std::uint32_t fpAlus = 2;  ///< + 1 mult/div/sqrt unit

    /** Outstanding L1D misses (MSHRs). */
    std::uint32_t mshrCount = 8;

    /** L1 data-cache hit latency in LS-domain cycles (Table 1: 2). */
    std::uint32_t l1dHitCycles = 2;

    /** Extra front-end cycles to redirect after a resolved branch. */
    std::uint32_t branchRedirectCycles = 2;

    BranchPredictor::Config predictor{};
    MemorySystem::Config memory{};

    // ---- Clocking and MCD ---------------------------------------
    /** Frequency/voltage range and 320-step grid. */
    VfCurve::Config vfRange{};

    /** XScale-style by default (73.3 ns/MHz ramp, no stall). */
    DvfsModel dvfsModel = DvfsModel::xscale();

    /** Queue-signal sampling rate (Table 1: 250 MHz). */
    Hertz samplingRate = megaHertz(250);

    /** Inter-domain synchronization window (Table 1: 300 ps). */
    Tick syncWindow = ticksFromPs(300);

    /** Clock jitter (+-10 ps normally distributed). */
    bool jitterEnabled = true;

    /**
     * True = MCD processor (sync penalties + jitter). False = the
     * conventional fully synchronous baseline (one clock, no
     * inter-domain cost); DVFS is unavailable in that mode.
     */
    bool mcdEnabled = true;

    /**
     * Use the 5-domain Iyer & Marculescu partition (Section 2):
     * instruction fetch runs in its own clock domain and hands
     * instructions to rename/dispatch through a synchronizing fetch
     * buffer. Default is the 4-domain Semeraro partition of Figure 1.
     */
    bool fiveDomainPartition = false;

    /** Fetch-buffer entries between the fetch and dispatch domains. */
    std::uint32_t fetchBufferSize = 16;

    // ---- DVFS control -------------------------------------------
    ControllerKind controller = ControllerKind::Adaptive;

    /**
     * Reference queue occupancies (INT, FP, LS). The paper uses
     * 6/4/4 (Section 5.1) and notes the values were picked to land
     * the overall performance degradation near 5%; on this substrate
     * the same operating point falls at 9/6/4 (see DESIGN.md), which
     * keeps the paper's fractional margins (just under half of the
     * INT queue, just over / exactly a quarter of FP / LS).
     */
    std::array<double, 3> qref = {9.0, 6.0, 4.0};

    /**
     * Per-domain control enable (INT, FP, LS): a disabled domain is
     * pinned at f_max. Used by the attribution/ablation studies.
     */
    std::array<bool, 3> controlDomain = {true, true, true};

    /** Adaptive-scheme parameters (q_ref overridden per domain). */
    AdaptiveController::Config adaptive{};

    /** PID baseline parameters (q_ref overridden per domain). */
    PidController::Config pid{};

    /** Attack/decay baseline parameters. */
    AttackDecayController::Config attackDecay{};

    /**
     * Factory for ControllerKind::Custom: called once per controlled
     * domain (0=INT, 1=FP, 2=LS) with the shared V/f curve. Lets
     * library users plug their own DvfsController into the full
     * processor without modifying mcdsim.
     */
    std::function<std::unique_ptr<DvfsController>(
        std::size_t domain_index, const VfCurve &curve)>
        customController;

    // ---- Power ---------------------------------------------------
    EnergyModel::Config energy{};

    // ---- Run control ----------------------------------------------
    std::uint64_t seed = 1;

    // ---- Fault tolerance (src/fault/) -----------------------------
    /**
     * Deterministic fault plan, or null (the default — no injection,
     * zero overhead: every hook is behind one null-pointer branch).
     * The plan is shared immutable state; per-run randomness is
     * derived from the seed inside the processor.
     */
    std::shared_ptr<const FaultPlan> faults;

    /**
     * Run labels the fault plan matches bench=/scheme= filters
     * against. Empty means "match wildcards only".
     */
    std::string faultBenchmark;
    std::string faultScheme;

    /**
     * Deterministic watchdog: abort the run with SimError at site
     * "event-budget" once the processor has dispatched this many
     * clock edges and sampler ticks. 0 disables. Purely a function of
     * the simulation, so it trips identically on every host and --jobs
     * setting. A nonzero budget also turns off idle-domain parking,
     * so the trip tick is that of the per-edge dispatch order.
     */
    std::uint64_t eventBudget = 0;

    /**
     * Opt-in cancellation poll, checked every few thousand events;
     * returning true aborts the run with SimError at site "deadline".
     * The callable may consult a wall clock (perfbench's exec probe
     * does); results then depend on host speed, so such runs are never
     * cached (cacheable() in core/run_spec.hh).
     */
    std::function<bool()> cancelCheck;

    /** Record frequency / queue traces (needed by Figures 7-8). */
    bool recordTraces = false;

    /** Decimation stride for recorded traces. */
    std::uint32_t traceStride = 8;

    // ---- Observability (src/obs/) ---------------------------------
    /**
     * Build the hierarchical stats registry and render text/JSON
     * dumps into SimResult::statsText / statsJson. Off by default:
     * registration happens once at construction, so the steady-state
     * cost is zero either way, but dumps stay opt-in.
     */
    bool collectStats = false;

    /**
     * Chrome trace-event collection (SimResult::traceJson). Disabled
     * sinks cost one predictable test per instrumented site.
     */
    obs::TraceConfig trace{};

    /** Sampling period derived from samplingRate. */
    Tick
    samplingPeriod() const
    {
        return periodFromFrequency(samplingRate);
    }
};

} // namespace mcd

#endif // MCDSIM_CORE_SIM_CONFIG_HH
