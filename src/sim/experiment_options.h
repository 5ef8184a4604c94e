// One experiment-configuration surface for every entry point.
//
// The CLI, the figure harnesses and the micro-tools used to each grow their
// own ad-hoc mix of argv parsing and getenv() calls; this header replaces
// them with a single parser so a knob spelled once works everywhere and
// precedence is uniform:
//
//   command-line flag  >  MOCA_SIM_* environment variable  >  default
//
// Knobs and their two spellings:
//
//   --instr N       MOCA_SIM_INSTR     measured instructions per core
//   --warmup N      MOCA_SIM_WARMUP    warm-up instructions (0 = derived)
//   --config C      MOCA_SIM_CONFIG    heterogeneous config 1|2|3
//   --epoch N       MOCA_SIM_EPOCH     observability sampling epoch (instr)
//   --trace-out F   MOCA_SIM_TRACE     Chrome-trace output file (enables
//                                      phase tracing)
//   --jobs N        MOCA_SIM_JOBS      sweep worker-pool size, positive
//                                      (unset = all hardware threads)
//   --log           MOCA_SWEEP_LOG     per-job progress lines on stderr
//                                      (every sweep)
//   --fault-plan P  MOCA_SIM_FAULTS    deterministic fault plan
//                                      (docs/robustness.md grammar)
//   --timeout-ms N  MOCA_SIM_TIMEOUT_MS  per-attempt wall-clock budget
//                                      (0 = none, the default)
//   --retries N     MOCA_SIM_RETRIES   attempts per cell for retryable
//                                      faults (default 3)
//   --journal F     (flag only)        sweep resume journal
//   --resume F      (flag only)        resume from journal F (implies
//                                      --journal F)
//   --isolate       MOCA_SIM_ISOLATE   run each sweep cell in a forked
//                                      child (crash containment, hard
//                                      deadlines; docs/robustness.md)
//   --rlimit-as-mb N  MOCA_SIM_RLIMIT_AS_MB  RLIMIT_AS cap per isolated
//                                      child, MiB (implies --isolate)
//   --rlimit-cpu-s N  MOCA_SIM_RLIMIT_CPU_S  RLIMIT_CPU cap per isolated
//                                      child, seconds (implies --isolate)
//   --audit         MOCA_SIM_AUDIT     epoch-driven invariant auditor
//   --adaptive S    MOCA_SIM_ADAPTIVE  phase-adaptive reclassification
//                                      engine: on|off|key=value,...
//                                      (moca/adaptive.h grammar)
//
// Both spellings of a knob go through one parser in experiment_options.cc,
// so they accept exactly the same values (a zero --instr, --jobs, --retries
// or rlimit cap is rejected either way); the environment variable of a bare
// flag (--log, --isolate, --audit) only has to be set.
//
// parse_args() rejects unknown flags and missing values with CheckError so
// a typo ("--jsonx") fails loudly instead of silently swallowing the next
// token (the bug the old per-tool parsers shared).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/runner.h"
#include "sim/supervisor.h"
#include "sim/sweep.h"

namespace moca::sim {

/// An extra flag a specific entry point accepts on top of the shared set
/// (e.g. the CLI's --json or --system).
struct FlagSpec {
  std::string name;        // without the leading "--"
  bool takes_value = true; // false = bare boolean flag
};

/// Tokenized command line: positionals in order, flags as name -> value
/// (bare flags store "1").
struct ParsedArgs {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  [[nodiscard]] bool has(const std::string& f) const {
    return flags.contains(f);
  }
  [[nodiscard]] std::string get(const std::string& f,
                                std::string fallback = "") const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& f,
                                      std::uint64_t fallback) const;
};

/// Tokenizes argv[start..argc) against the shared flag set plus `extra`.
/// Throws CheckError on an unknown flag or a value-taking flag at the end
/// of the line.
[[nodiscard]] ParsedArgs parse_args(int argc, char** argv, int start,
                                    const std::vector<FlagSpec>& extra = {});

/// Fully resolved experiment configuration for one entry point.
struct ExperimentOptions {
  Experiment experiment;
  /// Sweep worker-pool size; 0 (neither --jobs nor MOCA_SIM_JOBS given)
  /// means all hardware threads.
  unsigned jobs = 0;
  bool sweep_log = false;
  /// Chrome-trace output path; non-empty implies
  /// experiment.observability.trace.
  std::string trace_out;
  /// True when the instruction budget came from --instr or MOCA_SIM_INSTR
  /// rather than the default — benches use this to keep their own larger
  /// default window when nothing was requested.
  bool instructions_overridden = false;
  /// Options of the cell ladder every `compare`/`sweep` runs
  /// (--timeout-ms/--retries/--journal/--resume/--isolate/--rlimit-*);
  /// with none of them set it runs at the SupervisorOptions defaults.
  /// SweepRunner::run, and so every figure harness, ignores them and
  /// always runs the ladder at those defaults.
  SupervisorOptions supervisor;

  /// Defaults overlaid with every MOCA_SIM_* / MOCA_SWEEP_LOG variable.
  [[nodiscard]] static ExperimentOptions from_env();

  /// Overlays parsed flags (highest precedence) onto this configuration.
  void apply_flags(const ParsedArgs& args);

  /// Builds the worker pool these options describe.
  [[nodiscard]] SweepRunner make_runner() const;
};

}  // namespace moca::sim
