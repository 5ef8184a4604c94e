#include "sim/supervisor.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "sim/isolation.h"
#include "sim/report.h"
#include "sim/runner.h"

namespace moca::sim {
namespace {

using Clock = std::chrono::steady_clock;
using ProfileDb = std::map<std::string, core::ClassifiedApp>;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             Clock::now().time_since_epoch())
      .count();
}

constexpr std::uint64_t kJournalVersion = 1;

/// Fixed line prefix every journal entry starts with; resume keys its
/// parser off this (the journal is always self-written, so the shape is
/// known exactly — no general JSON parser needed or present in the repo).
std::string journal_prefix() {
  return "{\"journal_version\":" + std::to_string(kJournalVersion) +
         ",\"fingerprint\":\"";
}

/// One finished cell, framed so a crash mid-write can only ever damage the
/// final line: {prefix}<fp>","cell":N,"outcome":{...}}
std::string journal_line(const std::string& fingerprint, std::size_t cell,
                         const std::string& outcome_json) {
  std::string line = journal_prefix();
  line += fingerprint;
  line += "\",\"cell\":";
  line += std::to_string(cell);
  line += ",\"outcome\":";
  line += outcome_json;
  line += '}';
  return line;
}

/// Pulls `"key":<token>` out of a self-written outcome object. Returns
/// false when the key is absent. Only used on journal entries this code
/// serialized itself, so a plain substring search is exact enough.
bool extract_token(const std::string& json, const std::string& key,
                   std::string& out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = json.find(needle);
  if (pos == std::string::npos) return false;
  std::size_t begin = pos + needle.size();
  std::size_t end = begin;
  if (begin < json.size() && json[begin] == '"') {
    ++begin;
    end = begin;
    while (end < json.size() && json[end] != '"') ++end;
  } else {
    while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
  }
  out = json.substr(begin, end - begin);
  return true;
}

bool interrupted(const std::atomic<bool>* flag) {
  return flag != nullptr && flag->load(std::memory_order_relaxed);
}

/// One attempt's verdict. Each attempt starts from a fresh one, so nothing
/// an earlier attempt decided (a crash fingerprint, an error) leaks into
/// the cell's final outcome.
struct Attempt {
  SweepOutcome out;
  bool retryable = false;  // the ladder may spend another attempt
  std::string json;  // isolated ok cells: the child's verbatim serialization
};

/// The attempt step both modes share: run_workload under `context`, with
/// stops and retryable errors classified. Any other exception propagates;
/// the in-process caller reports it as failed, an isolated child's frame
/// as failed or (bad_alloc) oom.
Attempt run_attempt(std::size_t cell, std::uint32_t ordinal,
                    const SweepJob& job, const ProfileDb& db,
                    const RunContext& context) {
  Attempt attempt;
  SweepOutcome& out = attempt.out;
  Experiment experiment = job.experiment;
  experiment.fault_attempt = ordinal;
  experiment.fault_cell = cell;
  try {
    out.result = run_workload(job.apps, job.choice, db, experiment, context);
    out.ok = true;
  } catch (const CancelledError& e) {
    if (interrupted(context.interrupt)) {
      out.kind = SweepOutcome::FailureKind::kInterrupted;
      out.error = "sweep interrupted";
    } else {
      // Timeouts never retry: a wedged configuration wedges every attempt
      // and the budget is better spent on the remaining cells.
      out.kind = SweepOutcome::FailureKind::kTimedOut;
      out.error = e.what();
    }
  } catch (const RetryableError& e) {
    out.kind = SweepOutcome::FailureKind::kQuarantined;
    out.error = e.what();
    attempt.retryable = true;
  }
  return attempt;
}

Attempt attempt_in_process(const SupervisorOptions& options, std::size_t cell,
                           std::uint32_t ordinal, const SweepJob& job,
                           const ProfileDb& db) {
  RunContext context;
  context.interrupt = options.interrupt;
  if (options.timeout_ms > 0.0) {
    context.deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               options.timeout_ms));
  }
  try {
    return run_attempt(cell, ordinal, job, db, context);
  } catch (const std::exception& e) {
    Attempt attempt;
    attempt.out.kind = SweepOutcome::FailureKind::kFailed;
    attempt.out.error = e.what();
    return attempt;
  }
}

/// Runs the attempt step in a forked child with no stop conditions (the
/// parent enforces the deadline and the interrupt by SIGKILL), then
/// decodes the child's fate; docs/robustness.md has the user-facing table.
Attempt attempt_isolated(const SupervisorOptions& options, std::size_t cell,
                         std::uint32_t ordinal, const SweepJob& job,
                         const ProfileDb& db) {
  IsolationLimits limits;
  limits.deadline_ms = options.timeout_ms;
  limits.rlimit_as_bytes = options.rlimit_as_bytes;
  limits.rlimit_cpu_seconds = options.rlimit_cpu_seconds;
  const ChildOutcome child = run_isolated(
      limits, options.interrupt, [&](Heartbeat& heartbeat) {
        heartbeat.set_phase(ChildPhase::kRunning);
        Attempt attempt = run_attempt(cell, ordinal, job, db, {});
        heartbeat.set_phase(ChildPhase::kReporting);
        ChildFrame frame;
        if (attempt.out.ok) {
          // The child's own deterministic serialization crosses the pipe,
          // so the parent splices it verbatim and the merge stays
          // byte-identical to in-process execution by construction.
          SweepOutcome& out = attempt.out;
          out.job_id = cell;
          out.label = job.label;
          out.attempts = ordinal + 1;
          frame.kind = ChildFrame::Kind::kOk;
          frame.outcome_json = to_deterministic_json(out);
          frame.total_instructions = out.result.total_instructions;
        } else {
          // Without stop conditions the only failure run_attempt returns
          // is a retryable one; others are framed by run_isolated.
          frame.kind = ChildFrame::Kind::kRetryable;
          frame.error = attempt.out.error;
        }
        return frame;
      });

  Attempt attempt;
  SweepOutcome& out = attempt.out;
  switch (child.status) {
    case ChildOutcome::Status::kDelivered:
      out.error = child.frame.error;
      switch (child.frame.kind) {
        case ChildFrame::Kind::kOk:
          out.ok = true;
          out.result.total_instructions = child.frame.total_instructions;
          attempt.json = child.frame.outcome_json;
          break;
        case ChildFrame::Kind::kRetryable:
          out.kind = SweepOutcome::FailureKind::kQuarantined;
          attempt.retryable = true;
          break;
        case ChildFrame::Kind::kOom:
          // The cap was hit cleanly (allocator threw before the kernel
          // had to step in). Transient by the same logic as a crash:
          // attempts=k fault clauses model recoverable pressure.
          out.kind = SweepOutcome::FailureKind::kOomKilled;
          attempt.retryable = true;
          break;
        case ChildFrame::Kind::kFailed:
          out.kind = SweepOutcome::FailureKind::kFailed;
          break;
      }
      break;
    case ChildOutcome::Status::kCrashed:
      // An un-asked-for SIGKILL is the kernel OOM killer's signature
      // (the parent only SIGKILLs for deadline/interrupt, decoded
      // separately); everything else is a crash.
      out.kind = child.signal == SIGKILL
                     ? SweepOutcome::FailureKind::kOomKilled
                     : SweepOutcome::FailureKind::kCrashed;
      out.crash_signal = child.signal;
      out.crash_phase = to_string(child.last_phase);
      out.error = "isolated child died with signal " +
                  std::to_string(child.signal) + " in phase " +
                  out.crash_phase;
      attempt.retryable = true;
      break;
    case ChildOutcome::Status::kDeadline:
      // Deadlines never retry, same policy as in-process timeouts. Static
      // text: no wall-clock values, so the outcome bytes stay
      // deterministic.
      out.kind = SweepOutcome::FailureKind::kTimedOut;
      out.error = "isolated child exceeded its wall-clock deadline "
                  "(SIGKILL)";
      break;
    case ChildOutcome::Status::kInterrupted:
      out.kind = SweepOutcome::FailureKind::kInterrupted;
      out.error = "sweep interrupted";
      break;
    case ChildOutcome::Status::kExited:
      out.kind = SweepOutcome::FailureKind::kFailed;
      out.error = "isolated child exited with code " +
                  std::to_string(child.exit_code) +
                  " without a result frame";
      break;
  }
  return attempt;
}

}  // namespace

std::string sweep_fingerprint(const std::vector<SweepJob>& jobs) {
  // Serialize everything that determines a cell's simulated result into a
  // flat description, then hash. Host-side knobs (jobs, log, timeout) are
  // deliberately excluded: they may differ between the killed run and the
  // resume without invalidating finished cells.
  std::ostringstream os;
  os << "sweep/v1:" << jobs.size();
  for (const SweepJob& job : jobs) {
    os << ";label=" << job.label << ";choice=" << to_string(job.choice)
       << ";apps=";
    for (const std::string& app : job.apps) os << app << ',';
    const Experiment& e = job.experiment;
    os << ";instr=" << e.instructions << ";warmup=" << e.warmup
       << ";train_seed=" << e.train_seed << ";ref_seed=" << e.ref_seed
       << ";train_scale=" << e.train_scale << ";ref_scale=" << e.ref_scale
       << ";othr=" << e.object_thresholds.thr_lat << ','
       << e.object_thresholds.thr_bw
       << ";athr=" << e.app_thresholds.thr_lat << ','
       << e.app_thresholds.thr_bw << ";cfg=" << e.hetero_config
       << ";epoch=" << e.observability.epoch_instructions
       << ";audit=" << (e.observability.audit ? 1 : 0)
       << ";faults=" << e.faults.text();
  }
  const std::string desc = os.str();
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64, then mixed
  for (const char c : desc) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  h = splitmix64(h);
  std::ostringstream hex;
  hex << std::hex;
  hex.width(16);
  hex.fill('0');
  hex << h;
  return hex.str();
}

SweepSupervisor::SweepSupervisor(SweepRunner& runner,
                                 SupervisorOptions options)
    : runner_(runner), options_(std::move(options)) {
  MOCA_CHECK_MSG(!options_.resume || !options_.journal_path.empty(),
                 "supervisor: resume requires a journal path");
  if (options_.max_attempts == 0) options_.max_attempts = 1;
  // Isolated cells: the CPU rlimit defaults to a generous multiple of the
  // wall deadline as a backstop against a child that wedges while burning
  // CPU faster than wall time (the parent's wall SIGKILL normally fires
  // first).
  if (options_.isolate && options_.rlimit_cpu_seconds == 0 &&
      options_.timeout_ms > 0.0) {
    options_.rlimit_cpu_seconds =
        static_cast<std::uint64_t>(std::ceil(options_.timeout_ms / 250.0)) +
        5;
  }
}

void SweepSupervisor::load_journal(std::size_t job_count,
                                   std::vector<std::string>& cached,
                                   std::vector<SweepOutcome>& outcomes,
                                   std::size_t& resumed,
                                   std::size_t& torn) const {
  std::ifstream in(options_.journal_path);
  if (!in.is_open()) return;  // first run: nothing to resume yet
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  const std::string prefix = journal_prefix();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& entry = lines[i];
    const bool last = i + 1 == lines.size();
    // Frame check; a torn final line (crash mid-append) is expected and
    // skipped, anything else means the journal is not ours to trust.
    std::string fp;
    std::size_t cell = job_count;
    std::string outcome;
    bool well_formed = entry.compare(0, prefix.size(), prefix) == 0;
    if (well_formed) {
      const std::size_t fp_end = entry.find('"', prefix.size());
      well_formed = fp_end != std::string::npos;
      if (well_formed) {
        fp = entry.substr(prefix.size(), fp_end - prefix.size());
        const std::string cell_key = "\",\"cell\":";
        well_formed = entry.compare(fp_end, cell_key.size(), cell_key) == 0;
        if (well_formed) {
          std::size_t pos = fp_end + cell_key.size();
          std::size_t digits = 0;
          cell = 0;
          while (pos < entry.size() && entry[pos] >= '0' &&
                 entry[pos] <= '9') {
            cell = cell * 10 + static_cast<std::size_t>(entry[pos] - '0');
            ++pos;
            ++digits;
          }
          const std::string outcome_key = ",\"outcome\":";
          well_formed =
              digits > 0 &&
              entry.compare(pos, outcome_key.size(), outcome_key) == 0 &&
              entry.back() == '}' && entry.size() > pos + outcome_key.size();
          if (well_formed) {
            outcome = entry.substr(pos + outcome_key.size(),
                                   entry.size() - pos - outcome_key.size() -
                                       1);
            well_formed = !outcome.empty() && outcome.front() == '{' &&
                          outcome.back() == '}';
          }
        }
      }
    }
    if (!well_formed) {
      if (last) {
        // Torn tail from the crash (the append was cut mid-write); count
        // it so callers can report the recovery, and re-run that cell.
        ++torn;
        break;
      }
      MOCA_CHECK_MSG(false, "supervisor: corrupt journal line "
                                << (i + 1) << " in '"
                                << options_.journal_path << "'");
    }
    MOCA_CHECK_MSG(fp == fingerprint_,
                   "supervisor: journal '"
                       << options_.journal_path
                       << "' was written by a different sweep (fingerprint "
                       << fp << ", expected " << fingerprint_ << ")");
    MOCA_CHECK_MSG(cell < job_count, "supervisor: journal cell "
                                         << cell << " out of range (sweep has "
                                         << job_count << " cells)");
    if (cached[cell].empty()) ++resumed;
    cached[cell] = outcome;

    // Summary-only outcome for callers that inspect Result::outcomes; the
    // full payload stays in the cached JSON.
    SweepOutcome& out = outcomes[cell];
    out.job_id = cell;
    out.resumed = true;
    std::string token;
    if (extract_token(outcome, "label", token)) out.label = token;
    if (extract_token(outcome, "ok", token)) out.ok = token == "true";
    if (extract_token(outcome, "kind", token)) {
      // The journal holds to_string(kind); anything else reads as kNone.
      using Kind = SweepOutcome::FailureKind;
      out.kind = Kind::kNone;
      for (auto k = static_cast<std::uint8_t>(Kind::kNone);
           k <= static_cast<std::uint8_t>(Kind::kInterrupted); ++k) {
        const auto kind = static_cast<Kind>(k);
        if (token == to_string(kind)) out.kind = kind;
      }
    }
    if (extract_token(outcome, "attempts", token)) {
      out.attempts = static_cast<std::uint32_t>(std::stoul(token));
    }
  }
}

SweepOutcome SweepSupervisor::supervise_cell(
    std::size_t cell, const SweepJob& job, const ProfileDb& db,
    std::string& outcome_json) const {
  const double start = now_ms();
  Attempt attempt;
  std::uint32_t ordinal = 0;
  for (;; ++ordinal) {
    if (interrupted(options_.interrupt)) {
      attempt = Attempt{};
      attempt.out.kind = SweepOutcome::FailureKind::kInterrupted;
      attempt.out.error = "sweep interrupted";
    } else if (options_.isolate) {
      attempt = attempt_isolated(options_, cell, ordinal, job, db);
    } else {
      attempt = attempt_in_process(options_, cell, ordinal, job, db);
    }
    // A retryable kind that outlives the budget is final as it stands.
    if (!attempt.retryable || ordinal + 1 >= options_.max_attempts) break;
  }
  SweepOutcome& out = attempt.out;
  out.job_id = cell;
  out.label = job.label;
  out.attempts = ordinal + 1;
  out.wall_ms = now_ms() - start;
  if (out.ok && out.wall_ms > 0.0) {
    out.sim_instr_per_sec =
        static_cast<double>(out.result.total_instructions) /
        (out.wall_ms * 1e-3);
  }
  outcome_json = std::move(attempt.json);
  return std::move(out);
}

SweepSupervisor::Result SweepSupervisor::run(
    const std::vector<SweepJob>& jobs,
    const std::map<std::string, core::ClassifiedApp>& db) {
  fingerprint_ = sweep_fingerprint(jobs);

  Result result;
  result.outcomes.resize(jobs.size());
  std::vector<std::string> cached(jobs.size());
  if (options_.resume) {
    load_journal(jobs.size(), cached, result.outcomes,
                 result.resumed_cells, result.torn_journal_lines);
  }

  // POSIX fd rather than an ofstream: durability requires fsync after
  // every line (a cell is only "done" once its journal entry would
  // survive a host crash), and only the fd API exposes that.
  int journal_fd = -1;
  std::mutex journal_mutex;
  if (!options_.journal_path.empty()) {
    // Fresh sweeps truncate so stale cells from an unrelated earlier run
    // can never leak into a later resume; resumes append.
    journal_fd = ::open(options_.journal_path.c_str(),
                        O_WRONLY | O_CREAT |
                            (options_.resume ? O_APPEND : O_TRUNC),
                        0644);
    MOCA_CHECK_MSG(journal_fd >= 0, "supervisor: cannot open journal '"
                                        << options_.journal_path << "'");
  }

  std::vector<std::size_t> pending;
  pending.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (cached[i].empty()) pending.push_back(i);
  }

  runner_.for_each_index(pending.size(), [&](std::size_t slot) {
    const std::size_t cell = pending[slot];
    std::string json;
    SweepOutcome out = supervise_cell(cell, jobs[cell], db, json);
    if (json.empty()) json = to_deterministic_json(out);
    // Interrupted cells are never journaled: they produced no result, and
    // resume must re-run them for the merged report to reach the
    // uninterrupted run's bytes.
    const bool journal_it =
        journal_fd >= 0 &&
        out.kind != SweepOutcome::FailureKind::kInterrupted;
    if (journal_it) {
      // One fsynced line per cell: after a kill -9 or power loss,
      // everything before the (possibly torn) final line is recoverable.
      const std::string line =
          journal_line(fingerprint_, cell, json) + '\n';
      std::lock_guard lock(journal_mutex);
      std::size_t done = 0;
      while (done < line.size()) {
        const ssize_t n =
            ::write(journal_fd, line.data() + done, line.size() - done);
        if (n < 0) {
          if (errno == EINTR) continue;
          MOCA_CHECK_MSG(false, "supervisor: journal write failed ('"
                                    << options_.journal_path << "')");
        }
        done += static_cast<std::size_t>(n);
      }
      ::fsync(journal_fd);
    }
    cached[cell] = json;                    // distinct cells, no race
    result.outcomes[cell] = std::move(out);
  });

  if (journal_fd >= 0) ::close(journal_fd);

  for (const SweepOutcome& out : result.outcomes) {
    if (out.kind == SweepOutcome::FailureKind::kInterrupted) {
      result.interrupted = true;
      break;
    }
  }
  result.report = sweep_report_json(cached, result.interrupted);
  result.outcome_jsons = std::move(cached);
  return result;
}

}  // namespace moca::sim
