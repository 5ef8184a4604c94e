// High-level experiment driver shared by benches, examples and tests:
// profile -> classify -> run under each memory system / policy.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "moca/classifier.h"
#include "moca/profile.h"
#include "os/policy.h"
#include "sim/observability.h"
#include "sim/system.h"
#include "workload/suite.h"

namespace moca::sim {

/// The six memory-system/policy combinations compared throughout Sec. VI.
enum class SystemChoice {
  kHomogenDdr3,
  kHomogenLpddr2,
  kHomogenRldram,
  kHomogenHbm,
  kHeterApp,  // heterogeneous machine + application-level allocation
  kMoca,      // heterogeneous machine + MOCA object-level allocation
};

[[nodiscard]] std::string to_string(SystemChoice choice);
[[nodiscard]] std::vector<SystemChoice> all_system_choices();

/// Shared experiment settings: pure configuration, copied into every sweep
/// job. Host-side stop conditions travel separately as a RunContext.
struct Experiment {
  std::uint64_t instructions = 1'000'000;
  /// Warm-up instructions before counters reset; 0 = derive from
  /// `instructions` (see effective_warmup).
  std::uint64_t warmup = 0;
  std::uint64_t train_seed = 0x7777;
  std::uint64_t ref_seed = 0x1234;
  double train_scale = 0.6;  // training inputs are smaller (Sec. V-D)
  double ref_scale = 1.0;
  core::Thresholds object_thresholds{1.0, 20.0};  // Sec. IV-C
  /// App-level intensity threshold for the Heter-App baseline / Table III.
  /// The paper does not state Phadke et al.'s cutoff; 5 MPKI reproduces
  /// Table III's app classes on this suite (DESIGN.md §6).
  core::Thresholds app_thresholds{5.0, 20.0};
  int hetero_config = 1;  // paper default (Sec. VI-C)
  /// Epoch sampling / phase tracing for the measured runs (profiling runs
  /// always leave it off). Carried through sweep jobs unchanged.
  ObservabilityOptions observability;
  /// Phase-adaptive reclassification engine for the measured runs
  /// (profiling runs never enable it: the offline profile must describe
  /// the application, not the engine's interventions). Parsed from
  /// --adaptive / MOCA_SIM_ADAPTIVE; nullopt = off.
  std::optional<core::AdaptiveConfig> adaptive;
  /// Deterministic fault plan armed for the measured runs (profiling runs
  /// stay fault-free so the classification db is stable). Stochastic
  /// clauses derive their streams from ref_seed; an empty plan costs
  /// nothing. Parsed from --fault-plan / MOCA_SIM_FAULTS.
  FaultPlan faults;
  /// Supervised-retry ordinal (0 = first try) gating `attempts=k` fault
  /// clauses; set per attempt by the sweep supervisor.
  std::uint32_t fault_attempt = 0;
  /// Sweep-cell index gating `cell=n` fault clauses; set by the sweep
  /// runner / supervisor (non-sweep runs stay at 0).
  std::uint64_t fault_cell = 0;

  /// Warm-up used by the runner: a quarter of the measured window, clamped
  /// to [20K, 250K] instructions — enough to fill the caches' resident
  /// working sets before measurement starts.
  [[nodiscard]] std::uint64_t effective_warmup() const {
    if (warmup != 0) return warmup;
    const std::uint64_t quarter = instructions / 4;
    return quarter < 20'000 ? 20'000
                            : (quarter > 250'000 ? 250'000 : quarter);
  }
};

/// Offline profiling stage: single core, homogeneous DDR3 baseline,
/// training input (Sec. IV-A/V-A).
[[nodiscard]] core::AppProfile profile_app(const workload::AppSpec& app,
                                           const Experiment& experiment);

/// Classification stage: object classes from object thresholds, app class
/// from app thresholds (the "instrumented binary").
[[nodiscard]] core::ClassifiedApp classify_for_runtime(
    const core::AppProfile& profile, const Experiment& experiment);

/// Profiles and classifies every app in `names` (dedup-safe): the
/// build_profile_db of sweep.h on a one-worker SweepRunner.
[[nodiscard]] std::map<std::string, core::ClassifiedApp> build_profile_db(
    const std::vector<std::string>& names, const Experiment& experiment);

/// Builds the policy object for a choice.
[[nodiscard]] std::unique_ptr<os::AllocationPolicy> make_policy(
    SystemChoice choice);

/// Builds the memory system for a choice (homogeneous or the experiment's
/// heterogeneous config).
[[nodiscard]] MemSystemConfig memsys_for(SystemChoice choice,
                                         const Experiment& experiment);

/// Options every measured run shares: budget, warm-up, observability, the
/// adaptive engine and the fault plan (profiling runs build their own).
[[nodiscard]] SystemOptions measured_options(const Experiment& experiment);

/// Runs a workload (1..N apps on as many cores) under one system choice
/// with reference inputs. `context` carries the supervisor's deadline and
/// interrupt flag; the run throws CancelledError when either fires.
[[nodiscard]] RunResult run_workload(
    const std::vector<std::string>& app_names, SystemChoice choice,
    const std::map<std::string, core::ClassifiedApp>& db,
    const Experiment& experiment, const RunContext& context = {});

/// Convenience: single-application run (Figs. 8/9).
[[nodiscard]] RunResult run_single(
    const std::string& app_name, SystemChoice choice,
    const std::map<std::string, core::ClassifiedApp>& db,
    const Experiment& experiment);

/// Dynamic-migration baseline (Sec. IV-E): the heterogeneous machine with
/// interleaved first-touch placement plus the epoch page-migration daemon
/// promoting hot pages into RLDRAM/HBM at runtime.
[[nodiscard]] RunResult run_workload_with_migration(
    const std::vector<std::string>& app_names, const Experiment& experiment,
    const os::MigrationConfig& migration);

}  // namespace moca::sim
