// The benchmark's workloads. Each is batch and closed loop: the profile-db
// stage runs first, then the sweep's workers each start the next
// (apps, SystemChoice) cell when the previous one finishes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/runner.h"
#include "sim/sweep.h"

namespace perfbench {

struct WorkloadDef {
  std::string name;
  /// Apps profiled and classified before the first cell (Sec. IV-A).
  std::vector<std::string> profile_apps;
  /// Each mix runs under all six SystemChoices, one app per core.
  std::vector<std::vector<std::string>> mixes;
  /// Measured instructions per core (warm-up comes on top).
  std::uint64_t instructions = 0;
  unsigned workers = 1;
  /// Runs through SweepSupervisor (deadline, journal) with the adaptive
  /// engine and epoch sampling on, instead of the plain SweepRunner.
  bool supervised = false;
};

/// Null when `name` is not a workload.
[[nodiscard]] const WorkloadDef* find_workload(const std::string& name);

/// The experiment every cell of `def` runs with. The seed sets the
/// training and reference input seeds; nothing else depends on it.
[[nodiscard]] moca::sim::Experiment make_experiment(const WorkloadDef& def,
                                                    std::uint64_t seed);

using ProfileDb = std::map<std::string, moca::core::ClassifiedApp>;

/// What sim::run_workload hands the System constructor for one sweep cell.
/// Rebuilt here so the benchmark can time construction and run() apart
/// and pass its own policy; the traced run checks that the rebuilt cell
/// reports the same bytes as the swept one.
[[nodiscard]] moca::sim::SystemOptions cell_options(
    const moca::sim::SweepJob& job, std::size_t cell);
[[nodiscard]] std::vector<moca::sim::AppInstance> cell_apps(
    const moca::sim::SweepJob& job, const ProfileDb& db);

}  // namespace perfbench
