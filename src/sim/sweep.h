// Parallel sweep engine: runs independent (apps, SystemChoice, Experiment)
// jobs on a fixed-size worker pool.
//
// Every headline figure of the paper is a sweep — six system choices x many
// apps x config variants — and each (workload, system, experiment) cell is a
// self-contained simulation: the job builds its own System, EventQueue and
// RNG state from its Experiment seeds, so nothing is shared across threads
// and results are bit-identical for any worker count (docs/sweep.md).
//
// Results come back in submission order regardless of completion order, so
// callers can zip them against their job list. A job that throws is captured
// per-job (ok == false, error text set); the pool survives and the remaining
// jobs still run.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/runner.h"

namespace moca::sim {

/// One cell of a sweep: a workload (1..N apps, one per core) under one
/// system choice with one experiment configuration.
struct SweepJob {
  std::vector<std::string> apps;
  SystemChoice choice = SystemChoice::kHomogenDdr3;
  Experiment experiment;
  /// Optional caller tag carried through to the outcome (e.g. the workload
  /// set name); purely for labelling, never interpreted.
  std::string label;
};

/// Result of one job, in submission order.
struct SweepOutcome {
  /// Typed failure classification (docs/robustness.md). kNone for ok
  /// outcomes; the plain SweepRunner only produces kFailed, the
  /// SweepSupervisor adds kTimedOut (an attempt overran its wall-clock
  /// deadline), kQuarantined (retryable error outlived the retry budget)
  /// and kInterrupted (the sweep was stopped by SIGINT/SIGTERM before this
  /// cell could finish), and its process-isolated mode adds kCrashed
  /// (child died by signal) and kOomKilled (child exhausted its memory
  /// cap).
  enum class FailureKind : std::uint8_t {
    kNone,
    kFailed,
    kTimedOut,
    kQuarantined,
    kCrashed,
    kOomKilled,
    kInterrupted,  // last: journal resume decodes kinds up to this one
  };

  std::size_t job_id = 0;  // index into the submitted job list
  std::string label;
  bool ok = false;
  FailureKind kind = FailureKind::kNone;
  /// Attempts consumed (>= 2 only when the supervisor retried the job).
  std::uint32_t attempts = 1;
  std::string error;  // what() of the captured exception when !ok
  /// Crash fingerprint, populated only for kCrashed (and kOomKilled when
  /// the kernel's OOM killer delivered a signal): the terminating signal
  /// number plus the child's last heartbeat phase ("spawned", "running",
  /// "reporting", "done"). Deterministic for injected crashes.
  int crash_signal = 0;
  std::string crash_phase;
  /// Valid only when ok. Includes the job's observability payload
  /// (epoch time-series + trace events) when the experiment enabled it;
  /// like every simulated metric it is byte-identical for any worker
  /// count (docs/observability.md).
  RunResult result;
  /// Host-side observability (not part of the simulated metrics; excluded
  /// from determinism comparisons).
  double wall_ms = 0.0;
  double sim_instr_per_sec = 0.0;
  /// True when this cell was not re-run but recovered from a resume
  /// journal (supervised sweeps). Only job_id/label/ok/kind/attempts are
  /// populated then; the full result lives in the journal entry that the
  /// merged report splices back in. Never serialized.
  bool resumed = false;
};

/// Journal/report spelling of a FailureKind ("none", "failed",
/// "timed_out", "quarantined", "crashed", "oom_killed", "interrupted").
[[nodiscard]] std::string to_string(SweepOutcome::FailureKind kind);

/// Fixed-size worker pool executing sweep jobs concurrently.
class SweepRunner {
 public:
  /// workers == 0 sizes the pool to std::thread::hardware_concurrency()
  /// (at least 1). Users pick a size through --jobs / MOCA_SIM_JOBS
  /// (ExperimentOptions::make_runner).
  explicit SweepRunner(unsigned workers = 0);

  [[nodiscard]] unsigned workers() const { return workers_; }

  /// When set, one line per finished job (id, label, wall-clock ms,
  /// simulated instructions/sec) is written to `out`. The stream is locked
  /// internally; interleaving is line-atomic.
  void set_log(std::ostream* out) { log_ = out; }

  /// Runs every job and returns outcomes in submission order. `db` provides
  /// the classification each app runs under (see build_profile_db); apps
  /// missing from the db run unclassified, exactly like run_workload.
  [[nodiscard]] std::vector<SweepOutcome> run(
      const std::vector<SweepJob>& jobs,
      const std::map<std::string, core::ClassifiedApp>& db);

  /// Generic fan-out: applies `fn(i)` for i in [0, count) on the pool.
  /// Every slot runs even when some throw; after all slots finish, a
  /// single failure rethrows the original exception unchanged while
  /// multiple failures throw one CheckError aggregating every slot's
  /// error (slot index + message, in slot order). Building block for
  /// sweep-shaped work that is not a (apps, choice) cell, e.g. profiling.
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& fn);

  /// Resolves the worker count the way the constructor does: `requested`,
  /// or all hardware threads when it is 0.
  [[nodiscard]] static unsigned resolve_workers(unsigned requested);

 private:
  unsigned workers_ = 1;
  std::ostream* log_ = nullptr;
};

/// Parallel profiling stage: profile_app + classify_for_runtime for every
/// distinct name in `names`, fanned out on `runner`. Deterministic: each
/// profile run derives its RNG state from the experiment's train seed and
/// the app name only, so the db is identical to the sequential
/// build_profile_db in runner.h.
[[nodiscard]] std::map<std::string, core::ClassifiedApp> build_profile_db(
    const std::vector<std::string>& names, const Experiment& experiment,
    SweepRunner& runner);

/// Convenience: the full (workloads x choices) cross product, row-major
/// (workload outer, choice inner), matching the figure harness loops.
[[nodiscard]] std::vector<SweepJob> cross_product(
    const std::vector<std::vector<std::string>>& workloads,
    const std::vector<SystemChoice>& choices, const Experiment& experiment);

}  // namespace moca::sim
