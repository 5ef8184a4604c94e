#include "workloads.h"

#include "common/rng.h"
#include "moca/adaptive.h"
#include "workload/suite.h"

namespace perfbench {
namespace {

// Why each workload exists is recorded in BENCHMARK.json and spec.json.
// Cell lengths: long enough in the two sweeps that per-instruction
// simulation dominates host time, short in supervised-short so that the
// fixed per-cell costs (system build, watchdog, journal fsync, reports)
// are a large share of each cell.
std::vector<WorkloadDef> make_workloads() {
  std::vector<WorkloadDef> defs;

  WorkloadDef one;
  one.name = "sweep-1core";
  one.profile_apps = {"mcf", "lbm", "gcc"};  // one L, one B, one N app
  one.mixes = {{"mcf"}, {"lbm"}, {"gcc"}};
  one.instructions = 300'000;
  defs.push_back(one);

  WorkloadDef four;
  four.name = "sweep-4core";
  for (const moca::workload::WorkloadSet& set :
       moca::workload::standard_sets()) {
    if (set.name == "2L2B") four.profile_apps = set.apps;
  }
  four.mixes = {four.profile_apps};
  four.instructions = 200'000;
  defs.push_back(four);

  WorkloadDef shorts;
  shorts.name = "supervised-short";
  for (const moca::workload::AppSpec& app :
       moca::workload::standard_suite()) {
    shorts.profile_apps.push_back(app.name);
    shorts.mixes.push_back({app.name});
  }
  shorts.instructions = 30'000;
  shorts.workers = 2;
  shorts.supervised = true;
  defs.push_back(shorts);

  return defs;
}

}  // namespace

const WorkloadDef* find_workload(const std::string& name) {
  static const std::vector<WorkloadDef> defs = make_workloads();
  for (const WorkloadDef& def : defs) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

moca::sim::Experiment make_experiment(const WorkloadDef& def,
                                      std::uint64_t seed) {
  moca::sim::Experiment e;
  e.instructions = def.instructions;
  e.train_seed = moca::splitmix64(2 * seed);
  e.ref_seed = moca::splitmix64(2 * seed + 1);
  if (def.supervised) {
    e.adaptive = moca::core::parse_adaptive_spec("on");
    e.observability.epoch_instructions = 5'000;
  }
  return e;
}

moca::sim::SystemOptions cell_options(const moca::sim::SweepJob& job,
                                      std::size_t cell) {
  const moca::sim::Experiment& e = job.experiment;
  moca::sim::SystemOptions options;
  options.instructions_per_core = e.instructions;
  options.warmup_instructions = e.effective_warmup();
  options.observability = e.observability;
  options.adaptive = e.adaptive;
  options.faults = e.faults;
  options.fault_seed = e.ref_seed;
  options.fault_attempt = e.fault_attempt;
  options.fault_cell = cell;
  return options;
}

std::vector<moca::sim::AppInstance> cell_apps(const moca::sim::SweepJob& job,
                                              const ProfileDb& db) {
  std::vector<moca::sim::AppInstance> apps;
  for (std::size_t i = 0; i < job.apps.size(); ++i) {
    moca::sim::AppInstance app;
    app.spec = moca::workload::app_by_name(job.apps[i]);
    app.seed = job.experiment.ref_seed + 7919 * (i + 1);
    app.scale = job.experiment.ref_scale;
    if (const auto it = db.find(job.apps[i]); it != db.end()) {
      app.classes = it->second;
    }
    apps.push_back(std::move(app));
  }
  return apps;
}

}  // namespace perfbench
