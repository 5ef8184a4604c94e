// Phase-adaptive online reclassification engine.
//
// MOCA classifies objects once, offline, and places them at allocation time
// (Sec. III-B/III-C); the dynamic page-migration baseline (os/migration.*)
// chases per-page heat with no notion of objects. This engine is the point
// in between, in the spirit of Olson et al.'s online application guidance:
// it keeps a sliding window of per-object heat — LLC misses and ROB-head
// stall cycles attributed through the existing ObjectRegistry fast path —
// re-runs the paper's Sec. III-B threshold function on the windowed
// statistics each epoch, and moves *whole objects* whose observed behaviour
// has drifted from their placed class onto the module kinds of their new
// class (walking the same Sec. III-C preference chains allocation uses).
//
// Responsiveness without thrashing (the Jenga problem) comes from two
// hysteresis guards:
//
//   * a reclassification margin: to leave its current class an object must
//     cross the threshold by a configurable dead band (margin 0 reduces
//     exactly to the offline classifier), and
//   * minimum residency: a moved object cannot move again for a configured
//     number of epochs, bounding the worst-case move rate per object.
//
// The engine deliberately does NOT touch ObjectRegistry::placed_class: the
// virtual heap partition an object was allocated in is an allocation-time
// fact the invariant auditor cross-checks (invariant A5), while physical
// frames move underneath it. The engine keeps its own per-object current
// class; current_class() exposes it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/stat_registry.h"
#include "common/time.h"
#include "moca/classifier.h"
#include "moca/object_registry.h"
#include "os/os.h"

namespace moca::core {

struct AdaptiveConfig {
  /// Sampling window between reclassification passes, in core cycles.
  Cycle epoch_cycles = 50'000;
  /// Sliding-window length, in epochs. Decisions use statistics summed
  /// over the window, so one noisy epoch cannot flip a class.
  std::uint32_t window_epochs = 4;
  /// Jenga-style residency guard: epochs an object must stay put after a
  /// move before it may be reclassified again.
  std::uint32_t min_residency_epochs = 3;
  /// Fractional dead band on the thresholds: to leave its current class an
  /// object must cross Thr_Lat / Thr_BW by this margin (0.25 = 25%).
  /// 0 reduces the decision function to the offline classifier exactly.
  double reclass_margin = 0.25;
  /// Rate limit on whole-object moves per epoch (like the migration
  /// daemon's max_migrations_per_epoch, but in objects).
  std::uint32_t max_object_moves_per_epoch = 8;
  /// Rate limit on page remaps per epoch, shared across every object
  /// being placed. Objects larger than the budget move incrementally
  /// across epochs. Unlike the migration daemon's threshold-gated cap,
  /// whole-object placement *sustains* this rate for the duration of a
  /// move, so the default must stay inside the slowest module's service
  /// rate: 32 pages per 50K-cycle epoch is ~2.6 GB/s of copy reads plus
  /// writes, absorbable even by LPDDR2; sustained rates a slow module
  /// cannot drain grow its queue without bound and starve demand misses.
  std::uint32_t max_pages_per_epoch = 32;
  /// Minimum windowed LLC misses for a *promotion* (toward a faster
  /// class): moving an object up requires positive evidence. Demotions
  /// only require a full window — sustained silence is itself evidence.
  std::uint64_t min_window_misses = 16;
  /// Sec. III-B thresholds the windowed statistics are held against.
  Thresholds thresholds{};
};

struct AdaptiveStats {
  std::uint64_t epochs = 0;
  /// Window decisions that differed from the object's current class
  /// (before the capacity-limited move was attempted).
  std::uint64_t reclassifications = 0;
  /// Whole-object moves toward a faster class (N -> B/L or B -> L).
  std::uint64_t object_promotions = 0;
  /// Whole-object moves toward a slower class.
  std::uint64_t object_demotions = 0;
  std::uint64_t moved_pages = 0;
  std::uint64_t copied_lines = 0;  // injected DRAM copy traffic (lines)
  /// Pages that could not be placed anywhere in the new class's chain.
  std::uint64_t denied_no_space = 0;
  /// Reclassifications suppressed by the residency guard.
  std::uint64_t hysteresis_residency = 0;
  /// Flips suppressed by the margin dead band (the raw classifier
  /// disagreed with the current class but stayed inside the margin).
  std::uint64_t hysteresis_margin = 0;
  /// Moves that returned an object to its previous class shortly after
  /// the move away — the thrash the hysteresis exists to prevent. A
  /// correctly configured engine keeps this at zero.
  std::uint64_t ping_pong_moves = 0;
};

/// Applies the Sec. III-B threshold function with a hysteresis dead band
/// around `current`: leaving the current class requires crossing the
/// threshold by `margin` (fraction). margin == 0 is exactly the offline
/// classify_object decision. Exposed for tests.
[[nodiscard]] os::MemClass classify_windowed(double mpki,
                                             double stall_per_miss,
                                             os::MemClass current,
                                             const Thresholds& thresholds,
                                             double margin);

/// Epoch-driven online object reclassifier over the existing OS mappings.
class AdaptiveEngine {
 public:
  /// Committed-instruction reader for one process; windowed MPKI is
  /// per-object misses over per-process instructions (Sec. III-B).
  using InstructionSource = std::function<std::uint64_t(os::ProcessId)>;

  AdaptiveEngine(os::Os& os, const ObjectRegistry& registry,
                 AdaptiveConfig config);

  /// Called per demand LLC miss with the already-attributed object id
  /// (cache::AccessContext::object). kNoObject / non-heap ids are ignored.
  void record_miss(os::ProcessId pid, std::uint64_t object_id, bool is_load);
  /// Called with `cycles` ROB-head stall cycles (cpu::Core stall observer).
  void record_stall(os::ProcessId pid, std::uint64_t object_id,
                    std::uint64_t cycles);

  /// Closes the epoch: folds the accumulators into every tracked object's
  /// window, re-runs the threshold function, and moves reclassified
  /// objects (capacity- and rate-limited; Os::try_remap issues each page's
  /// copy traffic). Returns true when a page moved; the caller then owes
  /// every core one TLB shootdown.
  [[nodiscard]] bool run_epoch();

  void set_instruction_source(InstructionSource source) {
    instructions_ = std::move(source);
  }

  /// Registers the engine's activity counters under `prefix` (e.g.
  /// "moca/adaptive") plus a gauge of currently tracked objects.
  void register_stats(StatRegistry& registry,
                      const std::string& prefix) const;

  [[nodiscard]] const AdaptiveStats& stats() const { return stats_; }
  [[nodiscard]] const AdaptiveConfig& config() const { return config_; }
  /// The engine's current class for an object: the placed class until the
  /// engine has moved it, the last move's target afterwards.
  [[nodiscard]] os::MemClass current_class(std::uint64_t object_id) const;
  [[nodiscard]] std::size_t tracked_objects() const { return tracked_; }

 private:
  /// One epoch of attributed heat for one object.
  struct EpochSample {
    std::uint64_t llc_misses = 0;
    std::uint64_t load_misses = 0;
    std::uint64_t stall_cycles = 0;
  };

  struct ObjectState {
    bool tracked = false;
    os::MemClass current = os::MemClass::kNonIntensive;
    os::MemClass previous = os::MemClass::kNonIntensive;
    bool ever_moved = false;
    std::uint64_t last_move_epoch = 0;
    /// True while the object's pages are still being walked onto its new
    /// class's chain (placement is incremental under max_pages_per_epoch).
    bool placing = false;
    /// Next page to examine when placement resumes.
    os::Vpn resume_vpn = 0;
    /// Epochs this object has been tracked (ring fill level saturates at
    /// window_epochs).
    std::uint32_t observed_epochs = 0;
    EpochSample pending;                // accumulating current epoch
    std::vector<EpochSample> window;    // ring, size window_epochs
    std::uint32_t cursor = 0;
  };

  struct ProcessWindow {
    std::uint64_t last_total = 0;       // committed at previous epoch close
    std::vector<std::uint64_t> window;  // per-epoch deltas, ring
    std::uint32_t cursor = 0;
    std::uint32_t observed_epochs = 0;
  };

  ObjectState& ensure(std::uint64_t object_id);
  /// Walks `instance`'s pages from state.resume_vpn onto the preference
  /// chain of state.current (first present kind first, allocation-style
  /// fallback), consuming one unit of `budget` per actual remap. Clears
  /// state.placing once the scan reaches the object's last page; a page no
  /// kind in the chain can host is counted denied and left where it is.
  void place_pages(ObjectState& state, const ObjectInstance& instance,
                   std::uint32_t* budget);

  os::Os& os_;
  const ObjectRegistry& registry_;
  AdaptiveConfig config_;
  InstructionSource instructions_;
  std::vector<ObjectState> states_;  // indexed by dense object id
  std::vector<ProcessWindow> processes_;
  std::size_t tracked_ = 0;
  AdaptiveStats stats_;
};

/// Parses an --adaptive / MOCA_SIM_ADAPTIVE specification:
///   "on" | "1" | "default"   -> default AdaptiveConfig
///   "off" | "0"              -> nullopt (engine disabled; lets a flag
///                               override an environment opt-in)
///   comma-separated key=value overrides on the defaults:
///     epoch=N        epoch_cycles            (> 0)
///     window=N       window_epochs           (> 0)
///     residency=N    min_residency_epochs
///     margin=F       reclass_margin          ([0, 1))
///     max-moves=N    max_object_moves_per_epoch (> 0)
///     max-pages=N    max_pages_per_epoch     (> 0)
///     min-misses=N   min_window_misses
///     thr-lat=F      thresholds.thr_lat      (> 0)
///     thr-bw=F       thresholds.thr_bw       (> 0)
/// Throws CheckError on unknown keys or out-of-range values, and on a page
/// budget that copies faster than 32 pages per 50,000 cycles
/// (max-pages * 50000 > 32 * epoch), which no module tier can sustain.
[[nodiscard]] std::optional<AdaptiveConfig> parse_adaptive_spec(
    const std::string& spec);

}  // namespace moca::core
