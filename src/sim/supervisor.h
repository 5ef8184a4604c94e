// The per-cell retry ladder every sweep cell runs, plus supervised sweeps:
// a crash-safe journal and a merged, deterministic report on top of it.
//
// SweepRunner::run drives the ladder at the default SupervisorOptions (3
// attempts, no deadline, no journal, in-process); SweepSupervisor::run
// drives it at any options and adds the journal and the report envelope.
// `moca_cli compare` and `sweep` always go through SweepSupervisor; their
// knobs (--timeout-ms, --retries, --journal, --resume, --isolate) only
// change its options. Per cell, the ladder provides:
//
//   timeout     each attempt runs under a wall-clock deadline carried in a
//               RunContext; System::run checks it at its 4096-cycle poll
//               and throws CancelledError once it passes (kind =
//               timed_out).
//   retry       attempts failing with RetryableError re-run at once, up
//               to max_attempts (no host-side delay, so retry behaviour
//               never depends on timing); the retry ordinal feeds
//               Experiment::fault_attempt so `attempts=k` fault clauses
//               model genuinely transient faults. A cell whose retries
//               are exhausted is quarantined, not retried forever.
//   isolation   with isolate=true each cell runs in a forked child under
//               RLIMIT_AS/RLIMIT_CPU caps (src/sim/isolation.h); the
//               child runs the same attempt step with no stop conditions,
//               the parent enforces the deadline by SIGKILL and decodes
//               child deaths into kCrashed (signal + heartbeat phase
//               fingerprint) / kOomKilled, so a SIGSEGV or an OOM kill
//               costs one cell, not the sweep. Both modes share one retry
//               ladder.
//   interrupt   an optional interrupt flag (SIGINT/SIGTERM handler in the
//               CLI) stops the sweep gracefully: running cells stop at
//               their next poll (in-process) or are SIGKILLed (isolated),
//               unfinished cells are marked kInterrupted and kept out of
//               the journal, and the partial report is flagged
//               "interrupted" so resume re-runs them.
//   log         the runner's --log stream gets one line per finished cell
//               (id, label, wall-clock ms, M instr/s), the only place
//               host timing is reported.
//
// SweepSupervisor::run adds, per sweep:
//
//   journal     every finished cell appends one line to an append-only
//               journal and fsyncs before the cell counts as durable; a
//               killed sweep restarted with resume=true re-runs only the
//               cells missing from the journal and splices the finished
//               ones back in, byte-identical to an uninterrupted run. A
//               torn final line (kill mid-append) is tolerated and counted.
//   report      the {"schema_version":4,"outcomes":[...]} envelope.
//
// Everything that lands in the journal or the merged report is produced by
// sim::to_deterministic_json, so the report bytes depend only on simulated
// state — never on worker count, kill points or host timing
// (docs/robustness.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/sweep.h"

namespace moca::sim {

struct SupervisorOptions {
  /// Per-attempt wall-clock budget in milliseconds; 0 = no deadline (jobs
  /// can run forever).
  double timeout_ms = 0.0;
  /// Attempts per cell (first try + retries) for RetryableError failures;
  /// 0 runs one attempt, like 1. Timeouts and permanent errors never retry.
  std::uint32_t max_attempts = 3;
  /// Append-only journal path; empty runs without crash safety.
  std::string journal_path;
  /// Load finished cells from journal_path before running (crash
  /// recovery). Requires journal_path.
  bool resume = false;
  /// Run every cell in a forked child process (crash containment; POSIX
  /// only). timeout_ms becomes a hard parent-side SIGKILL deadline.
  bool isolate = false;
  /// RLIMIT_AS cap applied inside each isolated child; 0 = unlimited.
  std::uint64_t rlimit_as_bytes = 0;
  /// RLIMIT_CPU cap (seconds) applied inside each isolated child; 0
  /// derives a backstop from timeout_ms (the wall deadline is primary).
  std::uint64_t rlimit_cpu_seconds = 0;
  /// Graceful-stop flag (typically set by a SIGINT/SIGTERM handler).
  /// When it becomes true, running cells stop at their next poll
  /// (in-process) or are SIGKILLed (isolated) and every unfinished cell is
  /// reported as kInterrupted without being journaled. Null = never
  /// interrupted.
  const std::atomic<bool>* interrupt = nullptr;
};

/// Drives the cell ladder over a SweepRunner pool and writes its log lines
/// to the runner's log stream. The runner reference must outlive the
/// supervisor.
class SweepSupervisor {
 public:
  SweepSupervisor(SweepRunner& runner, SupervisorOptions options);

  SweepSupervisor(const SweepSupervisor&) = delete;
  SweepSupervisor& operator=(const SweepSupervisor&) = delete;

  struct Result {
    /// Outcomes in submission order. Resumed cells carry only the summary
    /// fields (job_id, label, ok, kind, attempts; resumed == true), and
    /// isolated ok cells only result.total_instructions of their result;
    /// outcome_jsons holds every cell in full.
    std::vector<SweepOutcome> outcomes;
    /// Deterministic merged sweep report,
    /// {"schema_version":N,"outcomes":[...]}: byte-identical for any
    /// worker count, for any kill/resume split of the same sweep, and for
    /// isolated vs in-process execution of every surviving cell.
    std::string report;
    /// Per-cell deterministic outcome JSON, in submission order (the
    /// report's "outcomes" elements; exposed so callers can compare
    /// surviving cells independently of a failed one).
    std::vector<std::string> outcome_jsons;
    /// Cells recovered from the journal instead of re-run.
    std::size_t resumed_cells = 0;
    /// Torn trailing journal lines tolerated during resume (0 or 1: a
    /// crash can only ever tear the final append).
    std::size_t torn_journal_lines = 0;
    /// True when the interrupt flag stopped the sweep early; the report
    /// carries "interrupted":true and kInterrupted cells then.
    bool interrupted = false;
  };

  /// Runs (or resumes) the sweep. Throws CheckError when the journal is
  /// unusable: a corrupt non-final line (a bad frame, or a cell or attempts
  /// number that is not a decimal in range), a cell index out of range, or
  /// a fingerprint recorded for a different sweep definition. A partial
  /// final line (the crash happened mid-write) is tolerated, counted in
  /// Result::torn_journal_lines, and that cell is re-run.
  [[nodiscard]] Result run(
      const std::vector<SweepJob>& jobs,
      const std::map<std::string, core::ClassifiedApp>& db);

 private:
  void load_journal(std::size_t job_count,
                    std::vector<std::string>& cached,
                    std::vector<SweepOutcome>& outcomes,
                    std::size_t& resumed, std::size_t& torn) const;

  SweepRunner& runner_;
  SupervisorOptions options_;
  std::string fingerprint_;
};

/// Stable hex fingerprint of a sweep definition (jobs + the experiment
/// fields that affect simulated results). Written into every journal line
/// so resume refuses to merge cells from a different sweep.
[[nodiscard]] std::string sweep_fingerprint(const std::vector<SweepJob>& jobs);

}  // namespace moca::sim
