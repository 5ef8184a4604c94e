// Online statistics collection for the offline profiling stage (Sec. IV-B).
//
// The simulator stands in for the paper's hardware performance counters:
// the cache hierarchy reports every demand LLC miss with its attribution
// context, and each core reports the cycles its ROB head is blocked on an
// LLC-missing load (one per step, or a whole idle-cycle jump at once). The
// profiler accumulates both per runtime object id (dense vectors — this is
// on the simulation fast path) and folds them into per-name AppProfiles at
// the end of the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/hierarchy.h"
#include "moca/object_registry.h"
#include "moca/profile.h"

namespace moca::core {

class Profiler {
 public:
  explicit Profiler(const ObjectRegistry& registry) : registry_(registry) {}

  /// Hierarchy demand-miss hook.
  void on_llc_miss(const cache::AccessContext& ctx);

  /// Core ROB-head stall hook: `cycles` stalled cycles on `object_id`.
  void on_head_stall(os::ProcessId pid, std::uint64_t object_id,
                     std::uint64_t cycles);

  /// Builds the profile of process `pid` after a run.
  [[nodiscard]] AppProfile finalize(const std::string& app_name,
                                    os::ProcessId pid,
                                    std::uint64_t instructions) const;

  /// Discards all accumulated counters (end-of-warmup reset; registered
  /// object instances are unaffected).
  void reset() {
    per_object_.clear();
    per_process_.clear();
  }

 private:
  struct PerObject {
    std::uint64_t llc_misses = 0;
    std::uint64_t load_llc_misses = 0;
    std::uint64_t stall_cycles = 0;
  };
  struct PerProcess {
    std::uint64_t llc_misses = 0;
    std::uint64_t load_llc_misses = 0;
    std::uint64_t stall_cycles = 0;
    std::uint64_t stack_misses = 0;
    std::uint64_t code_misses = 0;
    std::uint64_t other_misses = 0;
  };

  PerObject& object_slot(std::uint64_t id);
  PerProcess& process_slot(os::ProcessId pid);

  const ObjectRegistry& registry_;
  std::vector<PerObject> per_object_;
  std::vector<PerProcess> per_process_;
};

}  // namespace moca::core
