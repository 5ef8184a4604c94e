#include "sim/experiment_options.h"

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <optional>

#include "common/check.h"
#include "moca/adaptive.h"

namespace moca::sim {
namespace {

std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  // strtoull silently wraps a leading '-' to a huge value; reject it so
  // "-1" fails loudly like every other malformed number.
  MOCA_CHECK_MSG(!text.empty() && text[0] != '-',
                 what << " needs a non-negative number, got '" << text
                      << "'");
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  MOCA_CHECK_MSG(end != text.c_str() && *end == '\0',
                 what << " needs a number, got '" << text << "'");
  MOCA_CHECK_MSG(errno != ERANGE,
                 what << " is out of range, got '" << text << "'");
  return value;
}

/// One knob's raw text and the spelling it came from ("flag --instr" or
/// "MOCA_SIM_INSTR"), which every error message names.
struct Value {
  std::string text;
  std::string who;

  [[nodiscard]] std::uint64_t number() const { return parse_u64(text, who); }
  [[nodiscard]] std::uint64_t positive() const {
    const std::uint64_t n = number();
    MOCA_CHECK_MSG(n > 0, who << " must be positive");
    return n;
  }
  [[nodiscard]] const std::string& path() const {
    MOCA_CHECK_MSG(!text.empty(), who << " needs a file path");
    return text;
  }
};

/// Rejects a budget whose deadlock guard, cpu::cycle_limit over the
/// measured plus warm-up instructions, would overflow the picosecond clock.
/// Checked by both budget knobs against the other's current value, so the
/// one applied last sees the final pair.
void check_cycle_limit(const Experiment& e, const Value& v) {
  constexpr std::uint64_t kMax = cpu::kMaxGuardedInstructions;
  MOCA_CHECK_MSG(e.instructions <= kMax &&
                     e.effective_warmup() <= kMax - e.instructions,
                 v.who << " must keep instructions plus warm-up at most "
                       << kMax << " (the cycle limit overflows), got '"
                       << v.text << "'");
}

/// One row per knob (see the header table). Both spellings of a knob go
/// through the same `apply`, so they accept exactly the same values; a
/// bare flag's environment variable only has to be set, to any value.
struct Knob {
  const char* flag;  // without the leading "--"
  bool takes_value;
  const char* env;   // nullptr: flag only
  void (*apply)(ExperimentOptions&, const Value&);
};

constexpr Knob kKnobs[] = {
    {"instr", true, "MOCA_SIM_INSTR",
     [](ExperimentOptions& o, const Value& v) {
       o.experiment.instructions = v.positive();
       o.instructions_overridden = true;
       check_cycle_limit(o.experiment, v);
     }},
    {"warmup", true, "MOCA_SIM_WARMUP",
     [](ExperimentOptions& o, const Value& v) {
       o.experiment.warmup = v.number();
       check_cycle_limit(o.experiment, v);
     }},
    {"config", true, "MOCA_SIM_CONFIG",
     [](ExperimentOptions& o, const Value& v) {
       const std::uint64_t config = v.number();
       MOCA_CHECK_MSG(config >= 1 && config <= 3,
                      v.who << " must be 1, 2 or 3, got '" << v.text << "'");
       o.experiment.hetero_config = static_cast<int>(config);
     }},
    {"epoch", true, "MOCA_SIM_EPOCH",
     [](ExperimentOptions& o, const Value& v) {
       // The sampler ticks every epoch/4 cycles, scheduled in picoseconds.
       const std::uint64_t n = v.number();
       MOCA_CHECK_MSG(n <= static_cast<std::uint64_t>(kMaxCyclesInPs),
                      v.who << " must be at most " << kMaxCyclesInPs
                            << " (its length in ps overflows), got '"
                            << v.text << "'");
       o.experiment.observability.epoch_instructions = n;
     }},
    {"trace-out", true, "MOCA_SIM_TRACE",
     [](ExperimentOptions& o, const Value& v) {
       o.trace_out = v.path();
       o.experiment.observability.trace = true;
     }},
    {"jobs", true, "MOCA_SIM_JOBS",
     [](ExperimentOptions& o, const Value& v) {
       o.jobs = static_cast<unsigned>(v.positive());
     }},
    {"log", false, "MOCA_SWEEP_LOG",
     [](ExperimentOptions& o, const Value&) { o.sweep_log = true; }},
    {"fault-plan", true, "MOCA_SIM_FAULTS",
     [](ExperimentOptions& o, const Value& v) {
       o.experiment.faults = FaultPlan::parse(v.text);
     }},
    {"timeout-ms", true, "MOCA_SIM_TIMEOUT_MS",
     [](ExperimentOptions& o, const Value& v) {
       o.supervisor.timeout_ms = static_cast<double>(v.number());
     }},
    {"retries", true, "MOCA_SIM_RETRIES",
     [](ExperimentOptions& o, const Value& v) {
       o.supervisor.max_attempts = static_cast<std::uint32_t>(v.positive());
     }},
    {"journal", true, nullptr,
     [](ExperimentOptions& o, const Value& v) {
       o.supervisor.journal_path = v.path();
     }},
    {"resume", true, nullptr,  // after --journal, so --resume F wins
     [](ExperimentOptions& o, const Value& v) {
       o.supervisor.journal_path = v.path();
       o.supervisor.resume = true;
     }},
    {"isolate", false, "MOCA_SIM_ISOLATE",
     [](ExperimentOptions& o, const Value&) { o.supervisor.isolate = true; }},
    {"rlimit-as-mb", true, "MOCA_SIM_RLIMIT_AS_MB",
     [](ExperimentOptions& o, const Value& v) {
       o.supervisor.rlimit_as_bytes = v.positive() << 20;
       o.supervisor.isolate = true;  // caps imply isolation
     }},
    {"rlimit-cpu-s", true, "MOCA_SIM_RLIMIT_CPU_S",
     [](ExperimentOptions& o, const Value& v) {
       o.supervisor.rlimit_cpu_seconds = v.positive();
       o.supervisor.isolate = true;
     }},
    {"audit", false, "MOCA_SIM_AUDIT",
     [](ExperimentOptions& o, const Value&) {
       o.experiment.observability.audit = true;
     }},
    {"adaptive", true, "MOCA_SIM_ADAPTIVE",
     [](ExperimentOptions& o, const Value& v) {
       // "--adaptive off" overrides an environment opt-in (flag > env).
       o.experiment.adaptive = core::parse_adaptive_spec(v.text);
     }},
};

}  // namespace

std::string ParsedArgs::get(const std::string& f, std::string fallback) const {
  const auto it = flags.find(f);
  return it == flags.end() ? std::move(fallback) : it->second;
}

std::uint64_t ParsedArgs::get_u64(const std::string& f,
                                  std::uint64_t fallback) const {
  const auto it = flags.find(f);
  if (it == flags.end()) return fallback;
  return parse_u64(it->second, "flag --" + f);
}

ParsedArgs parse_args(int argc, char** argv, int start,
                      const std::vector<FlagSpec>& extra) {
  ParsedArgs args;
  for (int i = start; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      args.positional.push_back(token);
      continue;
    }
    const std::string name = token.substr(2);
    std::optional<bool> takes_value;
    for (const FlagSpec& spec : extra) {
      if (spec.name == name) takes_value = spec.takes_value;
    }
    for (const Knob& knob : kKnobs) {
      if (name == knob.flag) takes_value = knob.takes_value;
    }
    MOCA_CHECK_MSG(takes_value.has_value(), "unknown flag --" << name);
    if (!*takes_value) {
      args.flags[name] = "1";
      continue;
    }
    MOCA_CHECK_MSG(i + 1 < argc, "flag --" << name << " needs a value");
    args.flags[name] = argv[++i];
  }
  return args;
}

ExperimentOptions ExperimentOptions::from_env() {
  ExperimentOptions options;
  for (const Knob& knob : kKnobs) {
    const char* text = knob.env == nullptr ? nullptr : std::getenv(knob.env);
    if (text != nullptr) knob.apply(options, {text, knob.env});
  }
  return options;
}

void ExperimentOptions::apply_flags(const ParsedArgs& args) {
  for (const Knob& knob : kKnobs) {
    const auto it = args.flags.find(knob.flag);
    if (it != args.flags.end()) {
      knob.apply(*this, {it->second, std::string("flag --") + knob.flag});
    }
  }
}

SweepRunner ExperimentOptions::make_runner() const {
  SweepRunner runner(jobs);
  if (sweep_log) runner.set_log(&std::cerr);
  return runner;
}

}  // namespace moca::sim
