// Full-system assembly: cores + caches + OS + heterogeneous memory.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/hierarchy.h"
#include "common/event_queue.h"
#include "common/fault_injection.h"
#include "cpu/core.h"
#include "dram/module.h"
#include "moca/adaptive.h"
#include "moca/allocator.h"
#include "moca/classifier.h"
#include "moca/object_registry.h"
#include "moca/profiler.h"
#include "os/auditor.h"
#include "os/migration.h"
#include "os/os.h"
#include "os/physical_memory.h"
#include "power/core_power.h"
#include "power/dram_power.h"
#include "sim/config.h"
#include "sim/observability.h"
#include "workload/app_stream.h"

namespace moca::sim {

struct SystemOptions {
  cpu::CoreParams core_params;
  cache::CacheConfig l1 = cache::default_l1d();
  cache::CacheConfig l2 = cache::default_l2();
  std::uint64_t instructions_per_core = 1'000'000;
  /// Instructions each core runs before statistics are reset — the
  /// equivalent of the paper's fast-forward + cache warm-up before its
  /// measured SimPoint windows (Sec. V-A). Page placement performed during
  /// warm-up persists (first touch is first touch); only counters reset.
  std::uint64_t warmup_instructions = 0;
  /// When false, the per-object profiling hooks (LLC-miss and ROB-stall
  /// observers) are not installed — the runtime configuration of the paper,
  /// where profiling only happens in dedicated offline runs (Sec. IV-E).
  bool enable_profiling = true;
  /// When set, the epoch-based page-migration daemon runs on top of the
  /// base policy (the dynamic alternative of Sec. IV-E / related work).
  std::optional<os::MigrationConfig> migration;
  /// When set, the phase-adaptive object reclassification engine runs on
  /// top of the base policy (moca/adaptive.h). Independent of `migration`;
  /// both can run, each moving pages through the same OS remap primitive.
  std::optional<core::AdaptiveConfig> adaptive;
  /// Next-line prefetch degree at L2 (0 = off, the paper's machine).
  std::uint32_t prefetch_degree = 0;
  power::CorePowerParams core_power;
  /// Epoch stat sampling + phase tracing; disabled by default, in which
  /// case no probes are registered and run() behaves exactly as before.
  ObservabilityOptions observability;
  /// Fault plan armed for this simulation; empty = no injector, no cost.
  FaultPlan faults;
  /// Seed deriving every stochastic fault stream (callers pass the
  /// experiment's reference seed) and the supervised-retry ordinal gating
  /// `attempts=k` clauses.
  std::uint64_t fault_seed = 0;
  std::uint32_t fault_attempt = 0;
  /// Sweep-cell index gating `cell=n` fault clauses (0 outside sweeps).
  std::uint64_t fault_cell = 0;
};

/// Host-side stop conditions for one run, kept apart from the
/// configuration: System::run polls them once per 4096-cycle block of
/// simulated time and throws CancelledError once either fires. Neither
/// changes simulated results. The default context never stops.
struct RunContext {
  using Clock = std::chrono::steady_clock;
  /// Graceful-stop flag (SIGINT/SIGTERM); null = never interrupted.
  const std::atomic<bool>* interrupt = nullptr;
  /// Wall-clock deadline; max() = none, and then the clock is never read.
  Clock::time_point deadline = Clock::time_point::max();

  [[nodiscard]] bool stop_requested() const {
    return (interrupt != nullptr &&
            interrupt->load(std::memory_order_relaxed)) ||
           (deadline != Clock::time_point::max() && Clock::now() >= deadline);
  }
};

/// One application bound to one core.
struct AppInstance {
  workload::AppSpec spec;
  std::uint64_t seed = 1;
  double scale = 1.0;  // input-size scale (training < reference)
  /// Instrumented classification; empty for profiling/baseline runs.
  std::optional<core::ClassifiedApp> classes;
};

struct CoreResult {
  std::string app_name;
  cpu::CoreStats core;
  cache::HierarchyStats hierarchy;
  core::AppProfile profile;
  TimePs finish_time = 0;
};

struct ModuleResult {
  std::string name;
  dram::MemKind kind = dram::MemKind::kDdr3;
  std::uint64_t capacity_bytes = 0;
  dram::ChannelStats stats;
  double energy_j = 0.0;
  std::uint64_t frames_used = 0;
};

struct RunResult {
  std::string memsys_name;
  std::string policy_name;
  std::vector<CoreResult> cores;
  std::vector<ModuleResult> modules;
  os::OsStats os_stats;
  os::MigrationStats migration;  // zeros when the daemon is off
  core::AdaptiveStats adaptive;  // zeros when the engine is off
  TimePs exec_time = 0;              // time for every core to finish
  TimePs total_mem_access_time = 0;  // paper's "memory access time" metric
  double memory_energy_j = 0.0;
  double core_energy_j = 0.0;
  std::uint64_t total_instructions = 0;
  std::uint64_t total_llc_misses = 0;
  /// Epoch time-series + trace events; empty when observability was off.
  ObservabilityResult observability;

  /// Memory EDP = memory energy x total memory access time (Sec. VI-A).
  [[nodiscard]] double memory_edp() const;
  [[nodiscard]] double system_energy_j() const {
    return memory_energy_j + core_energy_j;
  }
  /// System EDP = total energy x execution time.
  [[nodiscard]] double system_edp() const;
  /// Aggregate instruction throughput (instructions per second).
  [[nodiscard]] double system_throughput() const;
};

/// Owns every component of one simulation and runs it to completion.
class System {
 public:
  System(const MemSystemConfig& memsys,
         std::unique_ptr<os::AllocationPolicy> policy,
         std::vector<AppInstance> apps, SystemOptions options);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Runs every core to its instruction budget and collects metrics.
  /// Throws CancelledError when `context` asks to stop.
  [[nodiscard]] RunResult run(const RunContext& context = {});

  [[nodiscard]] const core::ObjectRegistry& registry() const {
    return registry_;
  }
  [[nodiscard]] os::Os& os() { return *os_; }

 private:
  struct PerCore {
    os::ProcessId pid = 0;
    std::unique_ptr<core::MocaAllocator> allocator;  // outlives the stream
    std::unique_ptr<workload::AppStream> stream;
    std::unique_ptr<cache::MemHierarchy> hierarchy;
    std::unique_ptr<cpu::Core> core;
  };

  /// First-touches every page in allocation/program order (see .cc).
  void pretouch_pages();

  /// Runs `tick` every `period`, starting one period from now, until a
  /// call returns false. Each tick is one inline EventCallback.
  template <class Tick>
  void every(TimePs period, Tick tick);
  /// Invalidates every core's TLB: the one shootdown after a page-mover
  /// pass that moved pages.
  void flush_tlbs();
  /// Charges every sleeping core the idle steps before the current
  /// event's cycle, so a tick reads the counters of per-cycle stepping.
  void settle_cores();

  /// Wires every component's probes into stat_registry_ and schedules the
  /// periodic epoch tick. Only called when observability is on.
  void register_observability();
  /// Periodic observability check: emits at most one time-series row per
  /// tick once the aggregate instruction count crosses the next epoch
  /// boundary, plus trace instants for migration bursts / fallback spills.
  void epoch_tick();
  [[nodiscard]] std::uint64_t total_committed() const;

  MemSystemConfig memsys_;
  SystemOptions options_;
  std::vector<AppInstance> apps_;
  EventQueue events_;
  /// Armed fault state (null when options_.faults is empty). Created
  /// before the modules so every component can hold a pointer to it.
  std::unique_ptr<FaultInjector> injector_;
  /// Invariant auditor (null unless options_.observability.audit).
  std::unique_ptr<os::Auditor> auditor_;
  std::vector<std::unique_ptr<dram::MemoryModule>> modules_;
  os::PhysicalMemory phys_;
  std::unique_ptr<os::AllocationPolicy> policy_;
  std::unique_ptr<os::Os> os_;
  std::unique_ptr<os::PageMigrator> migrator_;
  std::unique_ptr<core::AdaptiveEngine> adaptive_;
  core::ObjectRegistry registry_;
  core::Profiler profiler_;
  std::vector<PerCore> cores_;

  // Observability state (inert unless options_.observability.enabled()).
  StatRegistry stat_registry_;
  std::unique_ptr<EpochSeries> series_;
  ChromeTrace trace_;
  std::uint64_t next_epoch_boundary_ = 0;
  std::uint64_t epoch_index_ = 0;
  /// Set before the post-run drain so tick events scheduled past the end
  /// of the measured phase become no-ops.
  bool sampling_stopped_ = false;
  std::uint64_t traced_fallbacks_ = 0;
  std::uint64_t traced_migrations_ = 0;
  std::uint64_t traced_reclassifications_ = 0;
};

}  // namespace moca::sim
