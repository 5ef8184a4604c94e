// Machine-readable reports of simulation results, in two shapes: one
// run's RunResult object (`moca_cli run` / `run-file --json`), and the sweep
// envelope that wraps one deterministic outcome object per cell (every
// `compare` / `sweep --json`, the supervisor's journal and merged report).
// Neither carries host timing; that lives only in the sweep's --log lines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sweep.h"
#include "sim/system.h"

namespace moca::sim {

/// Report schema version, the first key of every run-result object.
/// History:
///   1 (implicit) — original report, no version field
///   2 — adds "schema_version" plus the optional additive "timeseries"
///       block (epoch sampler columns/rows, see docs/observability.md)
///   3 — adds the typed "kind" + "attempts" failure fields to sweep
///       outcomes and the supervisor's sweep-report/journal envelopes
///       (docs/robustness.md)
///   4 — process-isolated sweeps: new failure kinds "crashed",
///       "oom_killed" and "interrupted"; the optional per-outcome "crash"
///       fingerprint block {"signal":N,"phase":"..."}; the optional sweep
///       envelope flag "interrupted":true on partial reports flushed by a
///       SIGINT/SIGTERM handler (docs/robustness.md)
/// Consumers should accept unknown keys; bumps are additive-only unless a
/// key's meaning changes.
inline constexpr std::uint64_t kReportSchemaVersion = 4;

/// Serializes a RunResult as a JSON document (per-core, per-module and
/// aggregate metrics; migration stats when the daemon ran; adaptive
/// reclassification stats when the engine ran; the epoch time-series when
/// sampling was on). Trace events are NOT embedded —
/// entry points write them to a separate Chrome-trace file.
[[nodiscard]] std::string to_json(const RunResult& result);

/// Serializes one sweep outcome: job id, label, failure kind, attempts
/// and the crash fingerprint, wrapping the simulated RunResult (or the
/// error text). The bytes depend only on simulated state, never on host
/// timing, so a resumed sweep merges byte-identically with an uninterrupted
/// one; the journal entries and the sweep report are built from it.
[[nodiscard]] std::string to_deterministic_json(const SweepOutcome& outcome);

/// Assembles the sweep report envelope every `compare`/`sweep --json`
/// prints, {"schema_version":N[,"interrupted":true],"outcomes":[...]},
/// from already-serialized outcome objects (freshly produced by
/// to_deterministic_json or spliced verbatim from a resume journal).
/// `interrupted` marks a partial report flushed by a signal handler.
[[nodiscard]] std::string sweep_report_json(
    const std::vector<std::string>& outcome_jsons, bool interrupted = false);

}  // namespace moca::sim
