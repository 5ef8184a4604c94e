// moca_cli — command-line driver for the MOCA simulator.
//
//   moca_cli list
//   moca_cli profile <app> [--instr N] [--out profile.txt]
//   moca_cli run <app>... [--system S] [--config 1|2|3] [--instr N]
//   moca_cli compare <app>... [--instr N] [--config 1|2|3]
//   moca_cli sweep <app>... [--systems S,S,...] [--instr N]
//   moca_cli record <app> --out trace.trc [--ops N] [--classify]
//   moca_cli replay <trace.trc> [--system S] [--config 1|2|3] [--instr N]
//
// Systems: ddr3, lp, rl, hbm, heter-app, moca, migration.
//
// `compare` and `sweep` run every cell through the supervisor's retry
// ladder (sim/supervisor.h) and catch SIGINT/SIGTERM; the supervision
// knobs only change the ladder's options. Their text output is one metrics
// table with status and attempts columns, and --json prints the schema-v4
// sweep envelope {"schema_version":4,"outcomes":[...]}.
#include <csignal>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/chrome_trace.h"
#include "common/table.h"
#include "sim/experiment_options.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "sim/supervisor.h"
#include "sim/sweep.h"
#include "trace/record.h"
#include "trace/replay.h"
#include "workload/parse.h"
#include "workload/suite.h"

namespace {

using namespace moca;
using sim::ParsedArgs;

/// Flags only the CLI accepts, on top of the shared ExperimentOptions set
/// (--instr/--warmup/--config/--epoch/--trace-out/--jobs/--log).
const std::vector<sim::FlagSpec>& cli_flags() {
  static const std::vector<sim::FlagSpec> kFlags = {
      {"json", false}, {"classify", false}, {"system", true},
      {"out", true},   {"ops", true},       {"seed", true},
      {"systems", true},
  };
  return kFlags;
}

// Graceful SIGINT/SIGTERM for compare/sweep: the handler only flips
// these flags; running cells stop at their next System::run poll
// (in-process) or are SIGKILLed (isolated), the journal stays consistent
// (every fsynced line stays valid) and the CLI then emits a partial
// report marked "interrupted" and exits 128+signal. A second signal
// (SA_RESETHAND) kills the process the default way for users who really
// mean it.
std::atomic<bool> g_interrupt{false};
std::atomic<int> g_interrupt_signal{0};

void interrupt_handler(int signum) {
  g_interrupt_signal.store(signum, std::memory_order_relaxed);
  g_interrupt.store(true, std::memory_order_relaxed);
}

void install_interrupt_handlers() {
  struct sigaction action {};
  action.sa_handler = interrupt_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESETHAND;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

/// Env defaults overlaid with the command line (flag > env > default).
sim::ExperimentOptions options_from(const ParsedArgs& args) {
  sim::ExperimentOptions options = sim::ExperimentOptions::from_env();
  options.apply_flags(args);
  return options;
}

/// Writes the run's Chrome-trace file when --trace-out/MOCA_SIM_TRACE asked
/// for one (open it in chrome://tracing or ui.perfetto.dev).
void write_trace(const sim::ExperimentOptions& options,
                 const sim::RunResult& r) {
  if (options.trace_out.empty()) return;
  std::ofstream out(options.trace_out);
  MOCA_CHECK_MSG(out.good(), "cannot write " << options.trace_out);
  out << chrome_trace_json(r.observability.trace) << '\n';
  std::cerr << "trace written to " << options.trace_out << '\n';
}

std::optional<sim::SystemChoice> parse_system(const std::string& name) {
  if (name == "ddr3") return sim::SystemChoice::kHomogenDdr3;
  if (name == "lp") return sim::SystemChoice::kHomogenLpddr2;
  if (name == "rl") return sim::SystemChoice::kHomogenRldram;
  if (name == "hbm") return sim::SystemChoice::kHomogenHbm;
  if (name == "heter-app") return sim::SystemChoice::kHeterApp;
  if (name == "moca") return sim::SystemChoice::kMoca;
  return std::nullopt;
}

void print_run(const sim::RunResult& r) {
  std::cout << "system: " << r.memsys_name << " / " << r.policy_name << "\n"
            << "exec time:        " << format_fixed(r.exec_time * 1e-6, 1)
            << " us\n"
            << "mem access time:  "
            << format_fixed(static_cast<double>(r.total_mem_access_time) *
                                1e-6,
                            1)
            << " us\n"
            << "memory energy:    " << format_fixed(r.memory_energy_j * 1e3, 4)
            << " mJ\n"
            << "memory EDP:       " << format_fixed(r.memory_edp() * 1e9, 4)
            << " nJ*s\n"
            << "system EDP:       " << format_fixed(r.system_edp() * 1e9, 4)
            << " nJ*s\n";
  Table cores({"app", "IPC", "LLC misses", "TLB misses"});
  for (const sim::CoreResult& c : r.cores) {
    cores.row()
        .cell(c.app_name)
        .cell(c.core.ipc(), 2)
        .cell(c.hierarchy.llc_misses)
        .cell(c.core.tlb_misses);
  }
  cores.print(std::cout);
  Table modules({"module", "frames", "accesses", "avg lat (ns)"});
  for (const sim::ModuleResult& m : r.modules) {
    const double acc = static_cast<double>(m.stats.accesses());
    modules.row()
        .cell(m.name)
        .cell(m.frames_used)
        .cell(m.stats.accesses())
        .cell(acc > 0 ? static_cast<double>(m.stats.total_access_time_ps()) /
                            acc / 1000.0
                      : 0.0,
              1);
  }
  modules.print(std::cout);
  if (r.migration.epochs > 0) {
    std::cout << "migration: " << r.migration.promotions << " promotions, "
              << r.migration.demotions << " demotions over "
              << r.migration.epochs << " epochs\n";
  }
}

int cmd_list() {
  std::cout << "applications (suite of paper Table III):\n";
  Table t({"name", "class", "objects", "heap footprint (MiB)"});
  for (const workload::AppSpec& app : workload::standard_suite()) {
    t.row()
        .cell(app.name)
        .cell(std::string(1, os::class_letter(app.expected_class)))
        .cell(static_cast<std::uint64_t>(app.objects.size()))
        .cell(static_cast<double>(app.heap_footprint()) / (1024.0 * 1024.0),
              0);
  }
  t.print(std::cout);
  std::cout << "\nsystems: ddr3 lp rl hbm heter-app moca migration\n"
            << "workload sets:";
  for (const workload::WorkloadSet& s : workload::standard_sets()) {
    std::cout << ' ' << s.name;
  }
  std::cout << '\n';
  return 0;
}

int cmd_profile(const ParsedArgs& args) {
  MOCA_CHECK_MSG(args.positional.size() == 1, "profile needs one app");
  const sim::Experiment e = options_from(args).experiment;
  const core::AppProfile profile =
      sim::profile_app(workload::app_by_name(args.positional[0]), e);
  const core::ClassifiedApp classes = sim::classify_for_runtime(profile, e);

  std::cout << "app " << profile.app_name << ": MPKI "
            << format_fixed(profile.app_mpki(), 2) << ", stall/miss "
            << format_fixed(profile.app_stall_per_miss(), 1) << ", class "
            << os::class_letter(classes.app_class) << "\n";
  Table t({"object", "size(MiB)", "MPKI", "stall/miss", "class"});
  for (const auto& [name, obj] : profile.objects) {
    t.row()
        .cell(obj.label)
        .cell(static_cast<double>(obj.bytes) / (1024.0 * 1024.0), 1)
        .cell(obj.mpki(profile.instructions), 2)
        .cell(obj.stall_per_miss(), 1)
        .cell(std::string(1, os::class_letter(classes.class_of(name))));
  }
  t.print(std::cout);

  if (args.has("out")) {
    std::ofstream out(args.get("out"));
    MOCA_CHECK_MSG(out.good(), "cannot write " << args.get("out"));
    out << profile.serialize();
    std::cout << "profile written to " << args.get("out") << '\n';
  }
  return 0;
}

int cmd_run(const ParsedArgs& args) {
  MOCA_CHECK_MSG(!args.positional.empty(), "run needs at least one app");
  const sim::ExperimentOptions options = options_from(args);
  const sim::Experiment& e = options.experiment;
  const std::string system = args.get("system", "moca");
  const auto report = [&](const sim::RunResult& r) {
    if (args.has("json")) {
      std::cout << sim::to_json(r) << '\n';
    } else {
      print_run(r);
    }
    write_trace(options, r);
  };
  if (system == "migration") {
    os::MigrationConfig migration;
    report(sim::run_workload_with_migration(args.positional, e, migration));
    return 0;
  }
  const auto choice = parse_system(system);
  MOCA_CHECK_MSG(choice.has_value(), "unknown system: " << system);
  sim::SweepRunner runner = options.make_runner();
  const auto db = sim::build_profile_db(args.positional, e, runner);
  report(sim::run_workload(args.positional, *choice, db, e));
  return 0;
}

/// Appends cell i's metric columns to its row; called only when results[i]
/// is set. `results` holds every cell's RunResult, null where it is not in
/// this process, for metrics relative to another cell.
using MetricCells = void (*)(Table&,
                             const std::vector<const sim::RunResult*>& results,
                             std::size_t i);

/// The body shared by compare and sweep: profiles the apps, runs every cell
/// through the supervisor's retry ladder with the interrupt flag armed,
/// prints the sweep report (--json) or a table of label, status, attempts
/// and `metric_columns`, and maps an interrupt to 128+signal.
int run_supervised_sweep(const ParsedArgs& args,
                         const sim::ExperimentOptions& options,
                         const std::vector<sim::SweepJob>& jobs,
                         const std::string& label_column,
                         const std::vector<std::string>& metric_columns,
                         MetricCells metrics) {
  // Install before the profiling phase so a SIGINT at any point after
  // startup is caught; a pre-sweep interrupt marks every cell interrupted.
  install_interrupt_handlers();
  sim::SweepRunner runner = options.make_runner();
  const auto db =
      sim::build_profile_db(args.positional, options.experiment, runner);
  sim::SupervisorOptions sup_options = options.supervisor;
  sup_options.interrupt = &g_interrupt;
  sim::SweepSupervisor supervisor(runner, sup_options);
  const sim::SweepSupervisor::Result result = supervisor.run(jobs, db);
  if (args.has("json")) {
    std::cout << result.report << '\n';
  } else {
    // A RunResult is in memory only for an ok cell that ran in this
    // process: a cell recovered from a journal carries only its status, an
    // isolated one only its instruction count.
    std::vector<const sim::RunResult*> results;
    std::size_t without_metrics = 0;
    for (const sim::SweepOutcome& outcome : result.outcomes) {
      const bool in_memory =
          outcome.ok && !outcome.resumed && !sup_options.isolate;
      results.push_back(in_memory ? &outcome.result : nullptr);
      if (outcome.ok && !in_memory) ++without_metrics;
    }
    std::vector<std::string> header = {label_column, "status", "attempts"};
    header.insert(header.end(), metric_columns.begin(), metric_columns.end());
    Table t(std::move(header));
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
      const sim::SweepOutcome& outcome = result.outcomes[i];
      std::string status =
          outcome.ok ? std::string("ok") : sim::to_string(outcome.kind);
      if (outcome.crash_signal != 0) {
        status += " (signal " + std::to_string(outcome.crash_signal) +
                  ", phase " + outcome.crash_phase + ")";
      }
      t.row()
          .cell(outcome.label)
          .cell(status)
          .cell(static_cast<std::uint64_t>(outcome.attempts));
      if (results[i] != nullptr) metrics(t, results, i);
    }
    t.print(std::cout);
    if (without_metrics > 0) {
      std::cout << without_metrics
                << " ok cells ran isolated or were recovered from the "
                   "journal: their metrics are in the --json report\n";
    }
  }
  // Operational notes go to stderr so --json output stays a clean pipe.
  if (result.torn_journal_lines > 0) {
    std::cerr << "journal: tolerated " << result.torn_journal_lines
              << " torn trailing line(s); those cells were re-run\n";
  }
  if (result.interrupted) {
    const int signum = g_interrupt_signal.load(std::memory_order_relaxed);
    std::cerr << "sweep interrupted (signal " << signum
              << "): journal flushed, partial report marked interrupted\n";
    return signum > 0 ? 128 + signum : 130;
  }
  return 0;
}

int cmd_compare(const ParsedArgs& args) {
  MOCA_CHECK_MSG(!args.positional.empty(), "compare needs apps");
  const sim::ExperimentOptions options = options_from(args);

  // All six systems on the worker pool; outcomes come back in submission
  // order so the DDR3 baseline is always outcomes[0].
  std::vector<sim::SweepJob> jobs = sim::cross_product(
      {args.positional}, sim::all_system_choices(), options.experiment);
  for (sim::SweepJob& job : jobs) job.label = sim::to_string(job.choice);
  // Normalized to Homogen-DDR3; the columns stay empty when it has none.
  const MetricCells normalized =
      [](Table& t, const std::vector<const sim::RunResult*>& results,
         std::size_t i) {
        if (results[0] == nullptr) return;
        const sim::RunResult& base = *results[0];
        const sim::RunResult& r = *results[i];
        t.cell(static_cast<double>(r.total_mem_access_time) /
                   static_cast<double>(base.total_mem_access_time),
               3)
            .cell(r.memory_edp() / base.memory_edp(), 3)
            .cell(r.system_edp() / base.system_edp(), 3);
      };
  return run_supervised_sweep(
      args, options, jobs, "system",
      {"mem time (norm)", "mem EDP (norm)", "system EDP (norm)"}, normalized);
}

/// `sweep <app>... [--systems S,S,...]`: the full apps x systems grid, one
/// cell per (app, system) pair — each app runs alone so cells are small and
/// independently retryable. This is the isolation/chaos workhorse: with
/// --isolate every cell is a forked child, and `cell=<n>` fault clauses
/// address cells by this submission order (app-major, systems inner).
int cmd_sweep(const ParsedArgs& args) {
  MOCA_CHECK_MSG(!args.positional.empty(), "sweep needs at least one app");
  const sim::ExperimentOptions options = options_from(args);

  std::vector<sim::SystemChoice> systems;
  if (args.has("systems")) {
    std::stringstream list(args.get("systems"));
    std::string name;
    while (std::getline(list, name, ',')) {
      if (name.empty()) continue;
      const auto choice = parse_system(name);
      MOCA_CHECK_MSG(choice.has_value(), "unknown system: " << name);
      systems.push_back(*choice);
    }
    MOCA_CHECK_MSG(!systems.empty(), "--systems needs at least one system");
  } else {
    for (const sim::SystemChoice choice : sim::all_system_choices()) {
      systems.push_back(choice);
    }
  }

  std::vector<std::vector<std::string>> workloads;
  for (const std::string& app : args.positional) workloads.push_back({app});
  std::vector<sim::SweepJob> jobs =
      sim::cross_product(workloads, systems, options.experiment);
  for (sim::SweepJob& job : jobs) {
    job.label = job.apps.front() + "/" + sim::to_string(job.choice);
  }
  const MetricCells absolute =
      [](Table& t, const std::vector<const sim::RunResult*>& results,
         std::size_t i) {
        const sim::RunResult& r = *results[i];
        double ipc = 0.0;
        for (const sim::CoreResult& c : r.cores) ipc += c.core.ipc();
        t.cell(static_cast<double>(r.total_mem_access_time) * 1e-6, 1)
            .cell(r.memory_edp() * 1e9, 4)
            .cell(ipc, 2);
      };
  return run_supervised_sweep(args, options, jobs, "cell",
                              {"mem time (us)", "mem EDP (nJ*s)", "IPC"},
                              absolute);
}

int cmd_record(const ParsedArgs& args) {
  MOCA_CHECK_MSG(args.positional.size() == 1, "record needs one app");
  MOCA_CHECK_MSG(args.has("out"), "record needs --out FILE");
  const workload::AppSpec app = workload::app_by_name(args.positional[0]);
  trace::RecordOptions options;
  options.ops = args.get_u64("ops", 1'000'000);
  options.seed = args.get_u64("seed", 1);

  core::ClassifiedApp classes;
  if (args.has("classify")) {
    const sim::Experiment e = options_from(args).experiment;
    classes = sim::classify_for_runtime(sim::profile_app(app, e), e);
    options.classes = &classes;
  }
  const std::uint64_t n =
      trace::record_app_trace(app, args.get("out"), options);
  std::cout << "wrote " << n << " records to " << args.get("out")
            << (args.has("classify") ? " (typed heap partitions)" : "")
            << '\n';
  return 0;
}

int cmd_replay(const ParsedArgs& args) {
  MOCA_CHECK_MSG(args.positional.size() == 1, "replay needs one trace file");
  const sim::ExperimentOptions exp_options = options_from(args);
  const sim::Experiment& e = exp_options.experiment;
  const std::string system = args.get("system", "moca");
  const auto choice = parse_system(system);
  MOCA_CHECK_MSG(choice.has_value(), "unknown system: " << system);

  trace::ReplayOptions options;  // no --instr/MOCA_SIM_INSTR: one full pass
  if (exp_options.instructions_overridden) {
    options.instructions = e.instructions;
  }
  std::optional<FaultInjector> injector;  // trace:* clauses need one armed
  if (!e.faults.empty()) {
    options.injector = &injector.emplace(e.faults, e.ref_seed);
  }
  const trace::ReplayResult r =
      trace::replay_trace(args.positional[0], sim::memsys_for(*choice, e),
                          sim::make_policy(*choice), options);
  std::cout << "replayed " << r.instructions << " ops in " << r.cycles
            << " cycles (IPC " << format_fixed(r.ipc, 2) << ")\n"
            << "LLC misses:      " << r.llc_misses << '\n'
            << "mem access time: "
            << format_fixed(static_cast<double>(r.total_mem_access_time) *
                                1e-6,
                            1)
            << " us\n"
            << "memory energy:   " << format_fixed(r.memory_energy_j * 1e3, 4)
            << " mJ\n";
  return 0;
}

workload::AppSpec app_from_file(const std::string& path) {
  std::ifstream in(path);
  MOCA_CHECK_MSG(in.good(), "cannot open spec file: " << path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return workload::parse_app_spec(buffer.str());
}

int cmd_profile_file(const ParsedArgs& args) {
  MOCA_CHECK_MSG(args.positional.size() == 1, "profile-file needs one file");
  const sim::Experiment e = options_from(args).experiment;
  const workload::AppSpec app = app_from_file(args.positional[0]);
  const core::AppProfile profile = sim::profile_app(app, e);
  const core::ClassifiedApp classes = sim::classify_for_runtime(profile, e);
  std::cout << "app " << profile.app_name << ": MPKI "
            << format_fixed(profile.app_mpki(), 2) << ", class "
            << os::class_letter(classes.app_class) << "\n";
  Table t({"object", "MPKI", "stall/miss", "class"});
  for (const auto& [name, obj] : profile.objects) {
    t.row()
        .cell(obj.label)
        .cell(obj.mpki(profile.instructions), 2)
        .cell(obj.stall_per_miss(), 1)
        .cell(std::string(1, os::class_letter(classes.class_of(name))));
  }
  t.print(std::cout);
  return 0;
}

int cmd_run_file(const ParsedArgs& args) {
  MOCA_CHECK_MSG(args.positional.size() == 1, "run-file needs one file");
  const sim::ExperimentOptions exp_options = options_from(args);
  const sim::Experiment& e = exp_options.experiment;
  const workload::AppSpec app = app_from_file(args.positional[0]);
  const std::string system = args.get("system", "moca");
  const auto choice = parse_system(system);
  MOCA_CHECK_MSG(choice.has_value(), "unknown system: " << system);

  sim::AppInstance inst;
  inst.spec = app;
  inst.seed = e.ref_seed;
  if (*choice == sim::SystemChoice::kMoca ||
      *choice == sim::SystemChoice::kHeterApp) {
    inst.classes = sim::classify_for_runtime(sim::profile_app(app, e), e);
  }
  std::vector<sim::AppInstance> instances;
  instances.push_back(std::move(inst));
  sim::System system_obj(sim::memsys_for(*choice, e),
                         sim::make_policy(*choice), std::move(instances),
                         sim::measured_options(e));
  const sim::RunResult r = system_obj.run();
  if (args.has("json")) {
    std::cout << sim::to_json(r) << '\n';
  } else {
    print_run(r);
  }
  write_trace(exp_options, r);
  return 0;
}

int usage() {
  std::cout
      << "usage: moca_cli <command> [...]\n"
         "  list                                  suite and systems\n"
         "  profile <app> [--instr N] [--out F]   offline profiling\n"
         "  run <app>... [--system S] [--config C] [--instr N]\n"
         "  compare <app>... [--instr N] [--jobs N] [--log] [--json]\n"
         "  sweep <app>... [--systems S,S,...] [--instr N] [--json]\n"
         "                 apps x systems grid, one cell per pair\n"
         "    compare/sweep print one row per cell with its status and\n"
         "    attempts; --json prints the schema-v4 sweep report\n"
         "  record <app> --out F [--ops N] [--classify]\n"
         "  profile-file <spec.app> [--instr N]      custom workload file\n"
         "  run-file <spec.app> [--system S] [--json]\n"
         "  replay <F> [--system S] [--instr N]\n"
         "systems: ddr3 lp rl hbm heter-app moca migration\n"
         "observability: [--epoch N] samples stats every N instructions\n"
         "  into the JSON report; [--trace-out F] writes a Chrome trace.\n"
         "robustness (docs/robustness.md):\n"
         "  [--fault-plan P]  deterministic fault injection, e.g.\n"
         "                    'module=RL-256MB:offline@2000000;alloc:p=0.01'\n"
         "  [--audit]         epoch-driven OS invariant auditor\n"
         "adaptive (docs/adaptive.md):\n"
         "  [--adaptive S]    phase-adaptive object reclassification;\n"
         "                    S = on|off|key=value,... e.g.\n"
         "                    'epoch=50000,window=4,residency=3,margin=0.25'\n"
         "sweeps (compare/sweep; every cell runs one retry ladder):\n"
         "  [--timeout-ms N]  per-attempt wall-clock deadline (default none)\n"
         "  [--retries N]     attempts for retryable faults (default 3)\n"
         "  [--journal F] / [--resume F]  crash-safe resume journal\n"
         "  [--isolate]       fork each cell into its own process: crashes\n"
         "                    and OOM kills quarantine one cell, survivors\n"
         "                    merge byte-identically (metrics: --json only)\n"
         "  [--rlimit-as-mb N] / [--rlimit-cpu-s N]  per-child address-space\n"
         "                    / CPU caps (imply --isolate)\n"
         "  SIGINT/SIGTERM during compare/sweep flushes the journal, emits\n"
         "  a partial report marked interrupted and exits 128+signal.\n"
         "Every knob also reads MOCA_SIM_{INSTR,WARMUP,CONFIG,EPOCH,TRACE,"
         "JOBS,\n"
         "FAULTS,TIMEOUT_MS,RETRIES,ISOLATE,RLIMIT_AS_MB,RLIMIT_CPU_S,\n"
         "AUDIT,ADAPTIVE};\n"
         "flags win over environment variables.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  ParsedArgs args;
  try {
    args = sim::parse_args(argc, argv, 2, cli_flags());
  } catch (const moca::CheckError& e) {
    // Unknown flag / missing value: usage plus non-zero exit, instead of
    // the old parser's silent guess that the next token was a value.
    std::cerr << "error: " << e.what() << '\n';
    return usage();
  }
  try {
    if (command == "list") return cmd_list();
    if (command == "profile") return cmd_profile(args);
    if (command == "run") return cmd_run(args);
    if (command == "compare") return cmd_compare(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "record") return cmd_record(args);
    if (command == "profile-file") return cmd_profile_file(args);
    if (command == "run-file") return cmd_run_file(args);
    if (command == "replay") return cmd_replay(args);
  } catch (const moca::CheckError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return usage();
}
