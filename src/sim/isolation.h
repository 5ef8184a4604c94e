// Process isolation for supervised sweep cells (POSIX fork/waitpid).
//
// The supervisor's in-process supervision is cooperative: a timeout only
// works if the simulation reaches its stop poll, and nothing survives a
// SIGSEGV, a sanitizer abort or the kernel OOM killer — one bad cell takes
// the whole sweep with it. run_isolated closes that gap by running one
// cell's work in a forked child:
//
//   containment   the child can die any way it likes (signal, _exit,
//                 RLIMIT_CPU SIGKILL, kernel OOM kill); the parent decodes
//                 the waitpid status into a typed ChildOutcome and the
//                 sweep continues.
//   hard deadline the parent SIGKILLs the child when its wall-clock
//                 deadline expires — no cooperation from the child needed,
//                 so even a cell wedged in a `for(;;)` loop dies on time.
//   resource caps RLIMIT_AS / RLIMIT_CPU are applied inside the child
//                 before any work runs, so a runaway cell cannot take the
//                 host down with it.
//   fingerprint   a shared-memory heartbeat page carries the child's
//                 coarse phase; on a crash the parent reads the last phase
//                 back as part of the crash fingerprint.
//
// Results cross a pipe as one length-prefixed frame (ChildFrame) written
// by the child immediately before _exit(0). The frame carries the cell's
// deterministic outcome JSON verbatim, so the parent can splice it into
// the merged report byte-identically to in-process execution.
//
// fork() happens on a worker thread of a multi-threaded pool; the child
// therefore only async-signal-safe-adjacent work between fork and the
// user callback (close/mmap bookkeeping, setrlimit), never locks shared
// mutexes from the parent, and always leaves via _exit so no parent-owned
// destructors or atexit handlers run twice.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

namespace moca::sim {

/// Coarse progress phases the child publishes through the heartbeat page;
/// the last one observed is half of the crash fingerprint.
enum class ChildPhase : std::uint8_t {
  kSpawned = 0,    // forked, callback not entered yet
  kRunning = 1,    // simulation executing
  kReporting = 2,  // simulation done, serializing/writing the frame
  kDone = 3,       // frame fully written, about to _exit(0)
};

/// Report spelling ("spawned", "running", "reporting", "done").
[[nodiscard]] std::string to_string(ChildPhase phase);

/// Caps applied to one isolated child. Zeros disable the respective cap.
struct IsolationLimits {
  /// Wall-clock deadline enforced by the parent via SIGKILL.
  double deadline_ms = 0.0;
  /// RLIMIT_AS ceiling applied inside the child before any work.
  std::uint64_t rlimit_as_bytes = 0;
  /// RLIMIT_CPU ceiling (seconds) applied inside the child.
  std::uint64_t rlimit_cpu_seconds = 0;
};

/// The one result frame a child writes to the pipe before exiting.
struct ChildFrame {
  enum class Kind : std::uint8_t {
    kOk = 0,         // outcome_json carries the finished cell
    kFailed = 1,     // permanent failure, error carries what()
    kRetryable = 2,  // RetryableError: the parent may re-spawn the cell
    kOom = 3,        // std::bad_alloc: the memory cap was hit cleanly
  };
  Kind kind = Kind::kFailed;
  std::string error;         // failure text when kind != kOk
  std::string outcome_json;  // deterministic outcome JSON when kind == kOk
  std::uint64_t total_instructions = 0;  // host-side throughput stats
};

/// Decoded fate of one isolated child: how it ended, and the frame if one
/// arrived intact.
struct ChildOutcome {
  enum class Status : std::uint8_t {
    kDelivered,    // complete frame received and the child exited cleanly
    kCrashed,      // died by a signal of its own doing (SIGSEGV, abort,
                   // RLIMIT_CPU SIGKILL, kernel OOM kill, ...)
    kDeadline,     // parent SIGKILL: wall-clock deadline expired
    kInterrupted,  // parent SIGKILL: the sweep's interrupt flag was set
    kExited,       // exited nonzero without delivering a complete frame
  };
  Status status = Status::kExited;
  int exit_code = 0;  // WEXITSTATUS when the child exited
  int signal = 0;     // terminating signal when the child was signaled
  ChildPhase last_phase = ChildPhase::kSpawned;  // from the heartbeat page
  ChildFrame frame;  // valid when status == kDelivered
};

/// Child-side view of the shared heartbeat page. Passed to the callback,
/// which publishes phases as work progresses; the parent reads the last
/// one after the child is gone.
class Heartbeat {
 public:
  explicit Heartbeat(void* page);

  /// Publishes the child's coarse phase (monotonic by convention).
  void set_phase(ChildPhase phase);

 private:
  void* page_;
};

/// Forks and runs `fn` in the child under `limits`, returning the decoded
/// outcome from the parent. `interrupt` (nullable) is polled while
/// waiting; when it becomes true the child is SIGKILLed and the outcome is
/// kInterrupted. The callback's returned frame is written to the pipe and
/// the child _exits 0; a callback that throws is reported as a kFailed
/// frame. Throws CheckError on host-level failures (pipe/fork/mmap).
[[nodiscard]] ChildOutcome run_isolated(
    const IsolationLimits& limits, const std::atomic<bool>* interrupt,
    const std::function<ChildFrame(Heartbeat&)>& fn);

}  // namespace moca::sim
