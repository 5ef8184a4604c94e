#include "sim/runner.h"

#include <cstdlib>

#include "common/check.h"
#include "common/rng.h"
#include "moca/policies.h"
#include "sim/sweep.h"

namespace moca::sim {

std::string to_string(SystemChoice choice) {
  switch (choice) {
    case SystemChoice::kHomogenDdr3:
      return "Homogen-DDR3";
    case SystemChoice::kHomogenLpddr2:
      return "Homogen-LP";
    case SystemChoice::kHomogenRldram:
      return "Homogen-RL";
    case SystemChoice::kHomogenHbm:
      return "Homogen-HBM";
    case SystemChoice::kHeterApp:
      return "Heter-App";
    case SystemChoice::kMoca:
      return "MOCA";
  }
  MOCA_CHECK_MSG(false, "unknown SystemChoice");
  return {};
}

std::vector<SystemChoice> all_system_choices() {
  return {SystemChoice::kHomogenDdr3, SystemChoice::kHomogenLpddr2,
          SystemChoice::kHomogenRldram, SystemChoice::kHomogenHbm,
          SystemChoice::kHeterApp, SystemChoice::kMoca};
}

core::AppProfile profile_app(const workload::AppSpec& app,
                             const Experiment& experiment) {
  SystemOptions options;
  options.instructions_per_core = experiment.instructions;
  options.warmup_instructions = experiment.effective_warmup();
  std::vector<AppInstance> instances;
  AppInstance inst;
  inst.spec = app;
  inst.seed = experiment.train_seed ^ splitmix64(app.name.size());
  inst.scale = experiment.train_scale;
  instances.push_back(std::move(inst));

  System system(homogeneous(dram::MemKind::kDdr3),
                std::make_unique<core::HomogeneousPolicy>(
                    dram::MemKind::kDdr3),
                std::move(instances), options);
  RunResult result = system.run();
  return std::move(result.cores.front().profile);
}

core::ClassifiedApp classify_for_runtime(const core::AppProfile& profile,
                                         const Experiment& experiment) {
  core::ClassifiedApp classes =
      core::classify(profile, experiment.object_thresholds);
  classes.app_class =
      core::classify_app(profile, experiment.app_thresholds);
  return classes;
}

std::map<std::string, core::ClassifiedApp> build_profile_db(
    const std::vector<std::string>& names, const Experiment& experiment) {
  SweepRunner sequential(1);
  return build_profile_db(names, experiment, sequential);
}

std::unique_ptr<os::AllocationPolicy> make_policy(SystemChoice choice) {
  switch (choice) {
    case SystemChoice::kHomogenDdr3:
      return std::make_unique<core::HomogeneousPolicy>(dram::MemKind::kDdr3);
    case SystemChoice::kHomogenLpddr2:
      return std::make_unique<core::HomogeneousPolicy>(
          dram::MemKind::kLpddr2);
    case SystemChoice::kHomogenRldram:
      return std::make_unique<core::HomogeneousPolicy>(
          dram::MemKind::kRldram3);
    case SystemChoice::kHomogenHbm:
      return std::make_unique<core::HomogeneousPolicy>(dram::MemKind::kHbm);
    case SystemChoice::kHeterApp:
      return std::make_unique<core::HeterAppPolicy>();
    case SystemChoice::kMoca:
      return std::make_unique<core::MocaPolicy>();
  }
  MOCA_CHECK_MSG(false, "unknown SystemChoice");
  return nullptr;
}

MemSystemConfig memsys_for(SystemChoice choice, const Experiment& experiment) {
  switch (choice) {
    case SystemChoice::kHomogenDdr3:
      return homogeneous(dram::MemKind::kDdr3);
    case SystemChoice::kHomogenLpddr2:
      return homogeneous(dram::MemKind::kLpddr2);
    case SystemChoice::kHomogenRldram:
      return homogeneous(dram::MemKind::kRldram3);
    case SystemChoice::kHomogenHbm:
      return homogeneous(dram::MemKind::kHbm);
    case SystemChoice::kHeterApp:
    case SystemChoice::kMoca:
      return heterogeneous(experiment.hetero_config);
  }
  MOCA_CHECK_MSG(false, "unknown SystemChoice");
  return {};
}

SystemOptions measured_options(const Experiment& experiment) {
  SystemOptions options;
  options.instructions_per_core = experiment.instructions;
  options.warmup_instructions = experiment.effective_warmup();
  options.observability = experiment.observability;
  options.adaptive = experiment.adaptive;
  options.faults = experiment.faults;
  options.fault_seed = experiment.ref_seed;
  options.fault_attempt = experiment.fault_attempt;
  options.fault_cell = experiment.fault_cell;
  return options;
}

namespace {

/// One reference-input instance per app, one per core, classified from
/// `db` (apps missing from it run unclassified).
std::vector<AppInstance> reference_apps(
    const std::vector<std::string>& app_names, const Experiment& experiment,
    const std::map<std::string, core::ClassifiedApp>& db) {
  MOCA_CHECK(!app_names.empty());
  std::vector<AppInstance> instances;
  for (std::size_t i = 0; i < app_names.size(); ++i) {
    AppInstance inst;
    inst.spec = workload::app_by_name(app_names[i]);
    inst.seed = experiment.ref_seed + 7919 * (i + 1);
    inst.scale = experiment.ref_scale;
    if (const auto it = db.find(app_names[i]); it != db.end()) {
      inst.classes = it->second;
    }
    instances.push_back(std::move(inst));
  }
  return instances;
}

}  // namespace

RunResult run_workload(const std::vector<std::string>& app_names,
                       SystemChoice choice,
                       const std::map<std::string, core::ClassifiedApp>& db,
                       const Experiment& experiment,
                       const RunContext& context) {
  System system(memsys_for(choice, experiment), make_policy(choice),
                reference_apps(app_names, experiment, db),
                measured_options(experiment));
  return system.run(context);
}

RunResult run_single(const std::string& app_name, SystemChoice choice,
                     const std::map<std::string, core::ClassifiedApp>& db,
                     const Experiment& experiment) {
  return run_workload({app_name}, choice, db, experiment);
}

RunResult run_workload_with_migration(
    const std::vector<std::string>& app_names, const Experiment& experiment,
    const os::MigrationConfig& migration) {
  SystemOptions options = measured_options(experiment);
  options.migration = migration;
  // The migration baseline places by first touch: every app unclassified.
  System system(heterogeneous(experiment.hetero_config),
                std::make_unique<core::InterleavedPolicy>(),
                reference_apps(app_names, experiment, {}), options);
  return system.run();
}

}  // namespace moca::sim
