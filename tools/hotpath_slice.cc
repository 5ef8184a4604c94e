// Single-job hot-path timing slice used by tools/bench_hotpath.sh.
//
// Runs exactly one cell on one thread: by default one cell of the fig08_09
// matrix (one app under one memory system, milc x Homogen-DDR3); --apps
// takes one app or a comma-separated multi-programmed mix, one core per app
// (e.g. --apps mcf,libquantum,lbm,mser, the 2L2B set). Prints a small JSON
// record with wall-clock time and simulated instructions per second. The
// simulated metrics are also emitted so before/after runs can be checked
// for byte-identical results alongside the timing comparison.
//
// Doubles as the observability smoke vehicle: --epoch/--trace-out (or
// MOCA_SIM_EPOCH/MOCA_SIM_TRACE) enable sampling, and --report FILE writes
// the full schema-v2 JSON report for tools/check_report.py.
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/chrome_trace.h"
#include "sim/experiment_options.h"
#include "sim/report.h"
#include "sim/runner.h"

int main(int argc, char** argv) {
  using namespace moca;
  sim::ParsedArgs args;
  try {
    args = sim::parse_args(argc, argv, 1,
                           {{"apps", true}, {"moca", false},
                            {"report", true}});
  } catch (const CheckError& e) {
    std::cerr << "error: " << e.what() << "\nusage: " << argv[0]
              << " [--apps NAME[,NAME...]] [--moca] [--report FILE]"
                 " [--epoch N] [--trace-out FILE] [--instr N]\n";
    return 2;
  }
  const std::string app = args.get("apps", "milc");
  std::vector<std::string> apps;
  std::istringstream list(app);
  for (std::string name; std::getline(list, name, ',');) {
    apps.push_back(name);
  }
  const sim::SystemChoice choice = args.has("moca")
                                       ? sim::SystemChoice::kMoca
                                       : sim::SystemChoice::kHomogenDdr3;

  sim::ExperimentOptions options = sim::ExperimentOptions::from_env();
  options.apply_flags(args);
  sim::Experiment& experiment = options.experiment;
  if (!options.instructions_overridden) experiment.instructions = 400'000;

  std::map<std::string, core::ClassifiedApp> db;
  if (choice == sim::SystemChoice::kMoca) {
    db = sim::build_profile_db(apps, experiment);
  }

  const auto t0 = std::chrono::steady_clock::now();
  const sim::RunResult result =
      sim::run_workload(apps, choice, db, experiment);
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(t1 - t0).count();
  const double instr = static_cast<double>(result.total_instructions);

  std::cout << "{\"app\":\"" << app << "\",\"system\":\""
            << sim::to_string(choice) << "\",\"instructions\":"
            << result.total_instructions << ",\"wall_s\":" << wall_s
            << ",\"instr_per_s\":" << (wall_s > 0.0 ? instr / wall_s : 0.0)
            << ",\"exec_time_ps\":" << result.exec_time
            << ",\"llc_misses\":" << result.total_llc_misses << "}\n";

  if (args.has("report")) {
    std::ofstream out(args.get("report"));
    MOCA_CHECK_MSG(out.good(), "cannot write " << args.get("report"));
    out << sim::to_json(result) << '\n';
  }
  if (!options.trace_out.empty()) {
    std::ofstream out(options.trace_out);
    MOCA_CHECK_MSG(out.good(), "cannot write " << options.trace_out);
    out << chrome_trace_json(result.observability.trace) << '\n';
  }
  return 0;
}
