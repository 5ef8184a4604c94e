// Tests for the workload-spec text format, the shared command-line parser
// and the latency histogram.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/event_queue.h"
#include "dram/controller.h"
#include "moca/naming.h"
#include "sim/experiment_options.h"
#include "workload/parse.h"
#include "workload/suite.h"

namespace moca::workload {
namespace {

constexpr const char* kSpec = R"(# demo app
app kvdemo
class L
mem_fraction 0.4
stack_fraction 0.06
code_fraction 0.01
stack_kib 16
code_kib 8
object log 32 stream weight=0.2 store=0.4 stride=32
object index 48 chase weight=0.45 hot=0.8 depth=5
object meta 2 hot weight=0.35 lifetime=20000
)";

TEST(Parse, ReadsEveryField) {
  const AppSpec app = parse_app_spec(kSpec);
  EXPECT_EQ(app.name, "kvdemo");
  EXPECT_EQ(app.expected_class, os::MemClass::kLatency);
  EXPECT_DOUBLE_EQ(app.mem_fraction, 0.4);
  EXPECT_DOUBLE_EQ(app.stack_fraction, 0.06);
  EXPECT_EQ(app.stack_bytes, 16 * KiB);
  EXPECT_EQ(app.code_bytes, 8 * KiB);
  ASSERT_EQ(app.objects.size(), 3u);

  const ObjectSpec& log = app.objects[0];
  EXPECT_EQ(log.pattern, PatternKind::kStream);
  EXPECT_EQ(log.bytes, 32 * MiB);
  EXPECT_DOUBLE_EQ(log.weight, 0.2);
  EXPECT_DOUBLE_EQ(log.store_fraction, 0.4);
  EXPECT_EQ(log.stride, 32u);

  const ObjectSpec& index = app.objects[1];
  EXPECT_EQ(index.pattern, PatternKind::kChase);
  EXPECT_DOUBLE_EQ(index.hot_fraction, 0.8);
  EXPECT_EQ(index.alloc_stack.size(), 5u);

  EXPECT_EQ(app.objects[2].lifetime_accesses, 20'000u);
}

TEST(Parse, RoundTripsThroughSerialize) {
  const AppSpec a = parse_app_spec(kSpec);
  const AppSpec b = parse_app_spec(serialize_app_spec(a));
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.expected_class, b.expected_class);
  ASSERT_EQ(a.objects.size(), b.objects.size());
  for (std::size_t i = 0; i < a.objects.size(); ++i) {
    EXPECT_EQ(a.objects[i].label, b.objects[i].label);
    EXPECT_EQ(a.objects[i].bytes, b.objects[i].bytes);
    EXPECT_EQ(a.objects[i].pattern, b.objects[i].pattern);
    EXPECT_DOUBLE_EQ(a.objects[i].weight, b.objects[i].weight);
    EXPECT_EQ(a.objects[i].lifetime_accesses,
              b.objects[i].lifetime_accesses);
    EXPECT_EQ(a.objects[i].alloc_stack, b.objects[i].alloc_stack);
  }
}

TEST(Parse, NamesAreDeterministicAndCollisionFreeWithSuite) {
  const AppSpec a = parse_app_spec(kSpec);
  const AppSpec b = parse_app_spec(kSpec);
  for (std::size_t i = 0; i < a.objects.size(); ++i) {
    EXPECT_EQ(moca::core::name_object(a.objects[i].alloc_stack),
              moca::core::name_object(b.objects[i].alloc_stack));
  }
  // No collision with the built-in suite's names.
  for (const AppSpec& suite_app : standard_suite()) {
    for (const ObjectSpec& so : suite_app.objects) {
      for (const ObjectSpec& co : a.objects) {
        EXPECT_NE(moca::core::name_object(so.alloc_stack),
                  moca::core::name_object(co.alloc_stack));
      }
    }
  }
}

TEST(Parse, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_app_spec(""), CheckError);
  EXPECT_THROW((void)parse_app_spec("app x\n"), CheckError);  // no objects
  EXPECT_THROW((void)parse_app_spec("object o 4 hot weight=1\n"),
               CheckError);  // object before app
  EXPECT_THROW((void)parse_app_spec("app x\nobject o 4 hot\n"),
               CheckError);  // missing weight
  EXPECT_THROW((void)parse_app_spec("app x\nobject o 4 warp weight=1\n"),
               CheckError);  // unknown pattern
  EXPECT_THROW((void)parse_app_spec("app x\nclass Q\nobject o 4 hot weight=1\n"),
               CheckError);  // bad class
  EXPECT_THROW(
      (void)parse_app_spec("app x\nfrobnicate 3\nobject o 4 hot weight=1\n"),
      CheckError);  // unknown key
  EXPECT_THROW(
      (void)parse_app_spec("app x\nobject o 4 hot weight=abc\n"),
      CheckError);  // bad number
}

TEST(Parse, CommentsAndBlankLinesIgnored)
{
  const AppSpec app = parse_app_spec(
      "\n# header\napp mini   # trailing comment\n\n"
      "object only 4 hot weight=1 # done\n");
  EXPECT_EQ(app.name, "mini");
  ASSERT_EQ(app.objects.size(), 1u);
}

}  // namespace
}  // namespace moca::workload

namespace moca::sim {
namespace {

/// argv adapter: parse_args wants char**, tests want string literals.
ParsedArgs parse_vec(std::vector<std::string> tokens,
                     const std::vector<FlagSpec>& extra = {}) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("test"));
  for (std::string& t : tokens) argv.push_back(t.data());
  return parse_args(static_cast<int>(argv.size()), argv.data(), 1, extra);
}

TEST(ParseArgs, SplitsPositionalsAndFlags) {
  const ParsedArgs args =
      parse_vec({"run", "milc", "--instr", "5000", "--log"});
  EXPECT_EQ(args.positional,
            (std::vector<std::string>{"run", "milc"}));
  EXPECT_EQ(args.get_u64("instr", 0), 5000u);
  EXPECT_TRUE(args.has("log"));
  EXPECT_EQ(args.get_u64("jobs", 7), 7u);  // fallback when absent
}

TEST(ParseArgs, UnknownFlagThrowsInsteadOfEatingNextToken) {
  // The old per-tool parsers treated any unknown --flag as value-taking, so
  // "--jsonx run" silently swallowed "run" as its value.
  EXPECT_THROW((void)parse_vec({"--jsonx", "run"}), CheckError);
  EXPECT_THROW((void)parse_vec({"--no-such-flag"}), CheckError);
}

TEST(ParseArgs, ExtraFlagsExtendTheSharedSet) {
  EXPECT_THROW((void)parse_vec({"--json"}), CheckError);
  const ParsedArgs args = parse_vec({"--json", "run"}, {{"json", false}});
  EXPECT_TRUE(args.has("json"));
  // Bare flag: "run" stays positional instead of becoming its value.
  EXPECT_EQ(args.positional, (std::vector<std::string>{"run"}));
}

TEST(ParseArgs, MissingValueOrBadNumberThrows) {
  EXPECT_THROW((void)parse_vec({"--instr"}), CheckError);
  const ParsedArgs args = parse_vec({"--instr", "abc"});
  EXPECT_THROW((void)args.get_u64("instr", 0), CheckError);
}

TEST(ExperimentOptionsTest, FlagBeatsEnvBeatsDefault) {
  setenv("MOCA_SIM_INSTR", "111000", 1);
  setenv("MOCA_SIM_EPOCH", "2000", 1);
  ExperimentOptions env_only = ExperimentOptions::from_env();
  EXPECT_EQ(env_only.experiment.instructions, 111'000u);
  EXPECT_EQ(env_only.experiment.observability.epoch_instructions, 2000u);
  EXPECT_TRUE(env_only.instructions_overridden);

  ExperimentOptions overridden = ExperimentOptions::from_env();
  overridden.apply_flags(parse_vec({"--instr", "222000", "--epoch", "0"}));
  EXPECT_EQ(overridden.experiment.instructions, 222'000u);
  EXPECT_EQ(overridden.experiment.observability.epoch_instructions, 0u);

  unsetenv("MOCA_SIM_INSTR");
  unsetenv("MOCA_SIM_EPOCH");
  const ExperimentOptions defaults = ExperimentOptions::from_env();
  EXPECT_FALSE(defaults.instructions_overridden);
  EXPECT_FALSE(defaults.experiment.observability.enabled());
}

/// Clears every environment variable from_env() reads, so each test starts
/// from a known state and leaves no residue for later tests in this binary.
void clear_sim_env() {
  for (const char* name :
       {"MOCA_SIM_INSTR", "MOCA_SIM_WARMUP", "MOCA_SIM_CONFIG",
        "MOCA_SIM_EPOCH", "MOCA_SIM_TRACE", "MOCA_SIM_JOBS",
        "MOCA_SWEEP_LOG", "MOCA_SIM_FAULTS", "MOCA_SIM_TIMEOUT_MS",
        "MOCA_SIM_RETRIES", "MOCA_SIM_ISOLATE", "MOCA_SIM_RLIMIT_AS_MB",
        "MOCA_SIM_RLIMIT_CPU_S", "MOCA_SIM_AUDIT", "MOCA_SIM_ADAPTIVE"}) {
    unsetenv(name);
  }
}

TEST(ExperimentOptionsTest, EnvOverlaysEveryKnob) {
  clear_sim_env();
  setenv("MOCA_SIM_INSTR", "123000", 1);
  setenv("MOCA_SIM_WARMUP", "7000", 1);
  setenv("MOCA_SIM_CONFIG", "2", 1);
  setenv("MOCA_SIM_EPOCH", "4000", 1);
  setenv("MOCA_SIM_TRACE", "/tmp/env-trace.json", 1);
  setenv("MOCA_SIM_JOBS", "3", 1);
  setenv("MOCA_SWEEP_LOG", "1", 1);
  setenv("MOCA_SIM_FAULTS", "job:fail:attempts=1", 1);
  setenv("MOCA_SIM_TIMEOUT_MS", "2500", 1);
  setenv("MOCA_SIM_RETRIES", "5", 1);
  setenv("MOCA_SIM_ISOLATE", "1", 1);
  setenv("MOCA_SIM_RLIMIT_AS_MB", "512", 1);
  setenv("MOCA_SIM_RLIMIT_CPU_S", "30", 1);
  setenv("MOCA_SIM_AUDIT", "1", 1);
  setenv("MOCA_SIM_ADAPTIVE", "window=6", 1);

  const ExperimentOptions o = ExperimentOptions::from_env();
  EXPECT_EQ(o.experiment.instructions, 123'000u);
  EXPECT_TRUE(o.instructions_overridden);
  EXPECT_EQ(o.experiment.warmup, 7000u);
  EXPECT_EQ(o.experiment.hetero_config, 2);
  EXPECT_EQ(o.experiment.observability.epoch_instructions, 4000u);
  EXPECT_EQ(o.trace_out, "/tmp/env-trace.json");
  EXPECT_TRUE(o.experiment.observability.trace);
  EXPECT_EQ(o.jobs, 3u);
  EXPECT_TRUE(o.sweep_log);
  EXPECT_EQ(o.experiment.faults.text(), "job:fail:attempts=1");
  EXPECT_DOUBLE_EQ(o.supervisor.timeout_ms, 2500.0);
  EXPECT_EQ(o.supervisor.max_attempts, 5u);
  EXPECT_TRUE(o.supervisor.isolate);
  EXPECT_EQ(o.supervisor.rlimit_as_bytes, 512ull << 20);
  EXPECT_EQ(o.supervisor.rlimit_cpu_seconds, 30u);
  EXPECT_TRUE(o.experiment.observability.audit);
  ASSERT_TRUE(o.experiment.adaptive.has_value());
  EXPECT_EQ(o.experiment.adaptive->window_epochs, 6u);
  clear_sim_env();
}

TEST(ExperimentOptionsTest, DefaultsWhenNothingIsSet) {
  clear_sim_env();
  const ExperimentOptions o = ExperimentOptions::from_env();
  const Experiment fresh;
  EXPECT_EQ(o.experiment.instructions, fresh.instructions);
  EXPECT_FALSE(o.instructions_overridden);
  EXPECT_EQ(o.experiment.warmup, 0u);
  EXPECT_EQ(o.experiment.hetero_config, fresh.hetero_config);
  EXPECT_FALSE(o.experiment.observability.enabled());
  EXPECT_TRUE(o.trace_out.empty());
  EXPECT_EQ(o.jobs, 0u);
  EXPECT_FALSE(o.sweep_log);
  EXPECT_TRUE(o.experiment.faults.empty());
  EXPECT_DOUBLE_EQ(o.supervisor.timeout_ms, 0.0);
  EXPECT_EQ(o.supervisor.max_attempts, SupervisorOptions{}.max_attempts);
}

TEST(ExperimentOptionsTest, FlagBeatsEnvOnEveryConflictingKnob) {
  // Every value-carrying knob spelled BOTH ways with conflicting values:
  // the flag must win each conflict.
  clear_sim_env();
  setenv("MOCA_SIM_INSTR", "111000", 1);
  setenv("MOCA_SIM_WARMUP", "1000", 1);
  setenv("MOCA_SIM_CONFIG", "2", 1);
  setenv("MOCA_SIM_EPOCH", "1000", 1);
  setenv("MOCA_SIM_TRACE", "/tmp/env.json", 1);
  setenv("MOCA_SIM_JOBS", "2", 1);
  setenv("MOCA_SIM_FAULTS", "job:fail", 1);
  setenv("MOCA_SIM_TIMEOUT_MS", "1000", 1);
  setenv("MOCA_SIM_RETRIES", "2", 1);
  setenv("MOCA_SIM_ISOLATE", "1", 1);
  setenv("MOCA_SIM_RLIMIT_AS_MB", "100", 1);
  setenv("MOCA_SIM_RLIMIT_CPU_S", "10", 1);
  setenv("MOCA_SIM_ADAPTIVE", "on", 1);

  ExperimentOptions o = ExperimentOptions::from_env();
  o.apply_flags(parse_vec({
      "--instr", "222000", "--warmup", "3000", "--config", "3",
      "--epoch", "6000", "--trace-out", "/tmp/flag.json", "--jobs", "8",
      "--fault-plan", "alloc:p=0.5", "--timeout-ms", "9000",
      "--retries", "7", "--isolate", "--rlimit-as-mb", "200",
      "--rlimit-cpu-s", "20", "--adaptive", "off",
  }));
  EXPECT_EQ(o.experiment.instructions, 222'000u);
  EXPECT_EQ(o.experiment.warmup, 3000u);
  EXPECT_EQ(o.experiment.hetero_config, 3);
  EXPECT_EQ(o.experiment.observability.epoch_instructions, 6000u);
  EXPECT_EQ(o.trace_out, "/tmp/flag.json");
  EXPECT_EQ(o.jobs, 8u);
  EXPECT_EQ(o.experiment.faults.text(), "alloc:p=0.5");
  EXPECT_DOUBLE_EQ(o.supervisor.timeout_ms, 9000.0);
  EXPECT_EQ(o.supervisor.max_attempts, 7u);
  EXPECT_TRUE(o.supervisor.isolate);
  EXPECT_EQ(o.supervisor.rlimit_as_bytes, 200ull << 20);
  EXPECT_EQ(o.supervisor.rlimit_cpu_seconds, 20u);
  EXPECT_FALSE(o.experiment.adaptive.has_value());
  clear_sim_env();
}

/// Expects `value` to be rejected both as `--flag value` and as `env=value`.
void expect_rejected_both_ways(const std::string& flag, const char* env,
                               const std::string& value) {
  clear_sim_env();
  setenv(env, value.c_str(), 1);
  EXPECT_THROW((void)ExperimentOptions::from_env(), CheckError)
      << env << "='" << value << "'";
  clear_sim_env();
  ExperimentOptions o = ExperimentOptions::from_env();
  EXPECT_THROW(o.apply_flags(parse_vec({"--" + flag, value})), CheckError)
      << "--" << flag << " '" << value << "'";
}

/// The CheckError text `apply` throws, or "accepted" when it throws none.
template <typename F>
std::string error_text(const F& apply) {
  try {
    apply();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "accepted";
}

/// Like expect_rejected_both_ways, and each error names the spelling that
/// carried the value.
void expect_named_rejection_both_ways(const std::string& flag, const char* env,
                                      const std::string& value) {
  clear_sim_env();
  setenv(env, value.c_str(), 1);
  EXPECT_NE(error_text([] { (void)ExperimentOptions::from_env(); })
                .find(std::string(env) + " must"),
            std::string::npos)
      << env << "='" << value << "'";
  clear_sim_env();
  ExperimentOptions o = ExperimentOptions::from_env();
  EXPECT_NE(error_text([&] { o.apply_flags(parse_vec({"--" + flag, value})); })
                .find("flag --" + flag + " must"),
            std::string::npos)
      << "--" << flag << " '" << value << "'";
}

TEST(ExperimentOptionsTest, EnvAndFlagRejectTheSameValues) {
  // Regression: the environment spellings of the rlimit caps accepted 0
  // (isolation with no cap) while the flags rejected it.
  for (const auto& [flag, env] :
       std::vector<std::pair<std::string, const char*>>{
           {"instr", "MOCA_SIM_INSTR"},
           {"retries", "MOCA_SIM_RETRIES"},
           {"rlimit-as-mb", "MOCA_SIM_RLIMIT_AS_MB"},
           {"rlimit-cpu-s", "MOCA_SIM_RLIMIT_CPU_S"}}) {
    expect_rejected_both_ways(flag, env, "0");
  }
  // An empty path or engine spec is no value either way.
  expect_rejected_both_ways("trace-out", "MOCA_SIM_TRACE", "");
  expect_rejected_both_ways("adaptive", "MOCA_SIM_ADAPTIVE", "");
  // Numbers that do not fit: past strtoull's range, a sampling epoch whose
  // picosecond length overflows, a page budget past 32 bits.
  expect_rejected_both_ways("instr", "MOCA_SIM_INSTR", "18446744073709551616");
  expect_rejected_both_ways("epoch", "MOCA_SIM_EPOCH", "9223372036854776");
  expect_rejected_both_ways("epoch", "MOCA_SIM_EPOCH", "40000000000000000");
  expect_rejected_both_ways("adaptive", "MOCA_SIM_ADAPTIVE",
                            "max-pages=4294967297,epoch=60000");
  // Budgets whose cycle limit, 200 cycles per instruction (warm-up
  // included) plus 1,000,000, overflows the picosecond clock: the limit
  // used to wrap and the run failed at once as a deadlock.
  for (const std::string value : {"50000000000000000", "46116860184273879",
                                  "46116860179274"}) {
    expect_named_rejection_both_ways("instr", "MOCA_SIM_INSTR", value);
    expect_named_rejection_both_ways("warmup", "MOCA_SIM_WARMUP", value);
  }
  // Heterogeneous configs are 1, 2 or 3; 4294967297 used to wrap to 1
  // through int, and 7 failed only after the profiling stage.
  for (const std::string value : {"0", "4", "7", "4294967297"}) {
    expect_named_rejection_both_ways("config", "MOCA_SIM_CONFIG", value);
  }
  clear_sim_env();
}

TEST(ExperimentOptionsTest, RejectionIsTheMessageAlone) {
  // The error a user (or a sweep outcome) sees is the message itself, with
  // no check expression or source path, so it reads the same from any
  // checkout.
  clear_sim_env();
  setenv("MOCA_SIM_CONFIG", "7", 1);
  EXPECT_EQ(error_text([] { (void)ExperimentOptions::from_env(); }),
            "MOCA_SIM_CONFIG must be 1, 2 or 3, got '7'");
  clear_sim_env();
  ExperimentOptions o = ExperimentOptions::from_env();
  EXPECT_EQ(error_text([&] { o.apply_flags(parse_vec({"--config", "7"})); }),
            "flag --config must be 1, 2 or 3, got '7'");
}

TEST(ExperimentOptionsTest, BudgetsUpToTheCycleLimitBoundAreAccepted) {
  // kMaxGuardedInstructions bounds measured plus warm-up instructions; an
  // unset warm-up counts as its derived value (250,000 at this size).
  const std::uint64_t max = cpu::kMaxGuardedInstructions;
  EXPECT_LE(cpu::cycle_limit(max), kMaxCyclesInPs);
  EXPECT_GT(cpu::cycle_limit(max + 1), kMaxCyclesInPs);
  clear_sim_env();
  ExperimentOptions o = ExperimentOptions::from_env();
  o.apply_flags(parse_vec({"--instr", std::to_string(max - 250'000)}));
  EXPECT_EQ(o.experiment.instructions, max - 250'000);
  EXPECT_THROW(o.apply_flags(
                   parse_vec({"--instr", std::to_string(max - 249'999)})),
               CheckError);
  // The pair is checked whichever spelling comes last: an environment
  // warm-up that fits alone fails once the flag's budget is added to it.
  setenv("MOCA_SIM_WARMUP", std::to_string(max / 2).c_str(), 1);
  ExperimentOptions env = ExperimentOptions::from_env();
  env.apply_flags(parse_vec({"--instr", std::to_string(max / 2)}));
  EXPECT_THROW(env.apply_flags(parse_vec(
                   {"--instr", std::to_string(max / 2 + 2)})),
               CheckError);
  clear_sim_env();
  for (const std::string value : {"1", "2", "3"}) {
    setenv("MOCA_SIM_CONFIG", value.c_str(), 1);
    EXPECT_EQ(ExperimentOptions::from_env().experiment.hetero_config,
              std::stoi(value));
  }
  clear_sim_env();
}

TEST(ExperimentOptionsTest, JobsFromEitherSpelling) {
  // Regression: MOCA_SIM_JOBS=0 was rejected while --jobs 0 was accepted.
  clear_sim_env();
  setenv("MOCA_SIM_JOBS", "5", 1);
  ExperimentOptions o = ExperimentOptions::from_env();
  EXPECT_EQ(o.make_runner().workers(), 5u);
  o.apply_flags(parse_vec({"--jobs", "6"}));
  EXPECT_EQ(o.make_runner().workers(), 6u);
  for (const std::string value : {"banana", "0", "4x", ""}) {
    expect_rejected_both_ways("jobs", "MOCA_SIM_JOBS", value);
  }
  clear_sim_env();
}

TEST(ExperimentOptionsTest, EnvAppliesWhereFlagsAreSilent) {
  // Mixed precedence in one resolution: flagged knobs take the flag value,
  // unflagged knobs keep the env value, untouched knobs keep defaults.
  clear_sim_env();
  setenv("MOCA_SIM_INSTR", "111000", 1);
  setenv("MOCA_SIM_EPOCH", "1234", 1);
  ExperimentOptions o = ExperimentOptions::from_env();
  o.apply_flags(parse_vec({"--instr", "222000"}));
  EXPECT_EQ(o.experiment.instructions, 222'000u);               // flag
  EXPECT_EQ(o.experiment.observability.epoch_instructions, 1234u);  // env
  EXPECT_EQ(o.experiment.hetero_config, Experiment{}.hetero_config);  // def
  clear_sim_env();
}

TEST(ExperimentOptionsTest, RetriesEnvIsReadAndValidated) {
  // Regression: MOCA_SIM_RETRIES was documented in the header's knob table
  // but from_env() never read it, so supervised retry budgets silently
  // ignored the environment spelling.
  clear_sim_env();
  setenv("MOCA_SIM_RETRIES", "4", 1);
  const ExperimentOptions o = ExperimentOptions::from_env();
  EXPECT_EQ(o.supervisor.max_attempts, 4u);

  setenv("MOCA_SIM_RETRIES", "0", 1);
  EXPECT_THROW((void)ExperimentOptions::from_env(), CheckError);
  setenv("MOCA_SIM_RETRIES", "abc", 1);
  EXPECT_THROW((void)ExperimentOptions::from_env(), CheckError);
  clear_sim_env();
}

TEST(ExperimentOptionsTest, BooleanKnobsFromEitherSpelling) {
  clear_sim_env();
  setenv("MOCA_SIM_AUDIT", "1", 1);
  setenv("MOCA_SWEEP_LOG", "1", 1);
  ExperimentOptions from_env = ExperimentOptions::from_env();
  EXPECT_TRUE(from_env.experiment.observability.audit);
  EXPECT_TRUE(from_env.sweep_log);
  clear_sim_env();

  ExperimentOptions from_flags = ExperimentOptions::from_env();
  EXPECT_FALSE(from_flags.experiment.observability.audit);
  from_flags.apply_flags(parse_vec({"--audit", "--log"}));
  EXPECT_TRUE(from_flags.experiment.observability.audit);
  EXPECT_TRUE(from_flags.sweep_log);
}

TEST(ExperimentOptionsTest, TraceOutEnablesTracing) {
  unsetenv("MOCA_SIM_TRACE");
  ExperimentOptions options = ExperimentOptions::from_env();
  EXPECT_FALSE(options.experiment.observability.trace);
  options.apply_flags(parse_vec({"--trace-out", "/tmp/t.json"}));
  EXPECT_TRUE(options.experiment.observability.trace);
  EXPECT_EQ(options.trace_out, "/tmp/t.json");

  setenv("MOCA_SIM_TRACE", "/tmp/env.json", 1);
  const ExperimentOptions from_env = ExperimentOptions::from_env();
  EXPECT_TRUE(from_env.experiment.observability.trace);
  EXPECT_EQ(from_env.trace_out, "/tmp/env.json");
  unsetenv("MOCA_SIM_TRACE");
}

}  // namespace
}  // namespace moca::sim

namespace moca::dram {
namespace {

TEST(LatencyHistogram, BucketsAndPercentiles) {
  ChannelStats s;
  // 90 requests at ~50 ns, 10 at ~900 ns.
  for (int i = 0; i < 90; ++i) s.record_latency(50'000);
  for (int i = 0; i < 10; ++i) s.record_latency(900'000);
  EXPECT_LE(s.latency_percentile(0.5), 64.0);
  EXPECT_GE(s.latency_percentile(0.95), 512.0);
  std::uint64_t total = 0;
  for (const std::uint64_t c : s.latency_hist) total += c;
  EXPECT_EQ(total, 100u);
}

TEST(LatencyHistogram, PopulatedByController) {
  EventQueue q;
  ChannelController ch(make_ddr3(), q, "hist");
  for (std::uint32_t i = 0; i < 16; ++i) {
    DramRequest r;
    ch.enqueue(std::move(r), i % 8, i);
  }
  q.run_until(10'000'000);
  std::uint64_t total = 0;
  for (const std::uint64_t c : ch.stats().latency_hist) total += c;
  EXPECT_EQ(total, 16u);
  EXPECT_GT(ch.stats().latency_percentile(0.5), 16.0);
}

TEST(LatencyHistogram, ExtremeTailsClamp) {
  ChannelStats s;
  s.record_latency(0);
  s.record_latency(1'000'000'000'000LL);  // 1 s
  EXPECT_EQ(s.latency_hist.front(), 1u);
  EXPECT_EQ(s.latency_hist.back(), 1u);
}

}  // namespace
}  // namespace moca::dram
