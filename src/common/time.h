// Simulation time base.
//
// The whole simulator runs on a single integer picosecond clock. CPU cores
// are stepped at 1 GHz (one cycle == 1000 ps), matching the paper's Table I;
// DRAM command timing is computed directly in picoseconds from per-device
// nanosecond parameters (Table II), so no cross-clock rounding accumulates.
#pragma once

#include <cstdint>
#include <limits>

namespace moca {

/// Absolute simulation time or duration, in picoseconds.
using TimePs = std::int64_t;

/// CPU cycle count (1 GHz core clock).
using Cycle = std::int64_t;

inline constexpr TimePs kPsPerNs = 1000;

/// Core clock period: 1 GHz per paper Table I.
inline constexpr TimePs kCpuCyclePs = 1000;

/// Longest span in cycles whose picosecond length fits in TimePs: parsers
/// reject periods beyond it instead of letting cycle_to_ps overflow.
inline constexpr Cycle kMaxCyclesInPs =
    std::numeric_limits<TimePs>::max() / kCpuCyclePs;

/// Converts a CPU cycle index to the picosecond timestamp of its start.
[[nodiscard]] constexpr TimePs cycle_to_ps(Cycle c) { return c * kCpuCyclePs; }

/// Converts a timestamp to the CPU cycle containing it (floor).
[[nodiscard]] constexpr Cycle ps_to_cycle_floor(TimePs t) {
  return t / kCpuCyclePs;
}

/// Converts a timestamp to the first CPU cycle starting at or after it.
[[nodiscard]] constexpr Cycle ps_to_cycle_ceil(TimePs t) {
  return (t + kCpuCyclePs - 1) / kCpuCyclePs;
}

/// Converts a (possibly fractional) nanosecond figure to picoseconds.
[[nodiscard]] constexpr TimePs ns_to_ps(double ns) {
  return static_cast<TimePs>(ns * static_cast<double>(kPsPerNs) + 0.5);
}

/// Converts picoseconds to seconds (for power/energy integration).
[[nodiscard]] constexpr double ps_to_seconds(TimePs t) {
  return static_cast<double>(t) * 1e-12;
}

}  // namespace moca
