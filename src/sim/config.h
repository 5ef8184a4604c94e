// Memory-system configurations (paper Sec. V-B/V-C and Sec. VI-C).
//
// Capacities are 1/4 of the paper's (kCapacityScale): the paper runs 1e9
// instructions per workload, we default to ~1e6, so footprints and module
// capacities are scaled together to preserve the capacity-pressure ratios
// that drive the Heter-App vs MOCA comparison (DESIGN.md §5). All ratios
// between modules are the paper's.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/event_queue.h"
#include "common/units.h"
#include "dram/module.h"
#include "dram/types.h"

namespace moca::sim {

/// Uniform capacity scale-down factor vs. the paper (see header comment).
inline constexpr std::uint64_t kCapacityScale = 4;

struct ModuleSpec {
  dram::MemKind kind = dram::MemKind::kDdr3;
  std::uint64_t capacity_bytes = 0;
  std::uint32_t attached_channels = 1;
  std::string name;
  /// Channel-interleave granule override; 0 keeps the device default
  /// (row-buffer granule, Table I's RoRaBaChCo).
  std::uint64_t interleave_granule_bytes = 0;
};

/// Builds the module `spec` describes on `events`, with its interleave
/// override applied: the one way System and trace replay build memory.
[[nodiscard]] std::unique_ptr<dram::MemoryModule> make_module(
    const ModuleSpec& spec, EventQueue& events);

struct MemSystemConfig {
  std::string name;
  std::vector<ModuleSpec> modules;

  [[nodiscard]] std::uint64_t total_capacity() const {
    std::uint64_t total = 0;
    for (const ModuleSpec& m : modules) total += m.capacity_bytes;
    return total;
  }
};

/// Homogeneous baseline: one 2GB (paper-scale) module type on 4 channels.
[[nodiscard]] MemSystemConfig homogeneous(dram::MemKind kind);

/// Two-tier DDR4+HBM machine in the style of Intel Knights Landing
/// (Sec. II-A / VII-A): 1.5GB DDR3 on 3 channels + 512MB HBM on 1
/// (paper-scale values, scaled like everything else). Exercises MOCA on a
/// machine without RLDRAM/LPDDR: the preference chains degrade gracefully.
[[nodiscard]] MemSystemConfig knl_like();

/// Heterogeneous configurations of Sec. VI-C (paper-scale values):
///  1: 256MB RLDRAM + 768MB HBM + 2x512MB LPDDR2  (the paper's default)
///  2: 512MB RLDRAM + 512MB HBM + 2x512MB LPDDR2
///  3: 768MB RLDRAM + 768MB HBM +   512MB LPDDR2
[[nodiscard]] MemSystemConfig heterogeneous(int config_number);

}  // namespace moca::sim
