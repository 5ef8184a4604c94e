// Dynamic page-migration baseline.
//
// The paper positions MOCA against hardware-monitor-driven page migration
// (Sec. IV-E, related work [19]/[33]/[36]): policies that count per-page
// accesses at runtime and periodically move hot pages into the fast
// modules. This engine implements that alternative so the trade-off can be
// measured: pages start wherever the base policy puts them (typically the
// power-optimized module), per-page LLC-miss heat is sampled each epoch,
// and the hottest pages are promoted into RLDRAM/HBM — paying copy traffic
// and TLB shootdowns that MOCA's allocation-time placement avoids.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/stat_registry.h"
#include "common/time.h"
#include "os/os.h"

namespace moca::os {

struct MigrationConfig {
  /// Sampling window between migration passes, in core cycles.
  Cycle epoch_cycles = 50'000;
  /// Upper bound on promotions per pass (migration daemons rate-limit).
  std::uint32_t max_migrations_per_epoch = 256;
  /// Minimum LLC misses within one epoch for a page to qualify as hot.
  std::uint64_t hot_threshold = 4;
};

struct MigrationStats {
  std::uint64_t epochs = 0;
  std::uint64_t promotions = 0;    // pages moved into a faster module
  std::uint64_t demotions = 0;     // pages displaced to make room
  std::uint64_t denied_no_space = 0;
  std::uint64_t copied_lines = 0;  // injected DRAM copy traffic (lines)
};

/// Epoch-based hot-page promoter over the existing OS mappings.
class PageMigrator {
 public:
  PageMigrator(Os& os, MigrationConfig config);

  /// Called per demand LLC miss (performance-counter sampling).
  void record_miss(ProcessId pid, VirtAddr vaddr);

  /// Runs one migration pass and resets the epoch's heat counters. Each
  /// move's copy traffic is issued by Os::try_remap. Returns true when a
  /// page moved; the caller then owes every core one TLB shootdown.
  [[nodiscard]] bool run_epoch();

  /// Registers the daemon's activity counters under `prefix` (e.g.
  /// "migration") plus a gauge of currently heat-tracked pages.
  void register_stats(StatRegistry& registry,
                      const std::string& prefix) const;

  [[nodiscard]] const MigrationStats& stats() const { return stats_; }
  [[nodiscard]] const MigrationConfig& config() const { return config_; }
  [[nodiscard]] std::size_t tracked_pages() const { return heat_.size(); }

 private:
  struct PageRef {
    ProcessId pid = 0;
    Vpn vpn = 0;
  };

  /// Moves (pid, vpn) into `target_module`, demoting the oldest previously
  /// promoted page if the target is full. Returns true on success.
  bool promote(const PageRef& page, std::uint32_t target_module);
  bool remap(const PageRef& page, std::uint32_t target_module);

  static std::uint64_t key(ProcessId pid, Vpn vpn) {
    return (static_cast<std::uint64_t>(pid) << 48) | vpn;
  }

  Os& os_;
  MigrationConfig config_;
  std::unordered_map<std::uint64_t, std::uint32_t> heat_;
  /// Pages this engine promoted, per module index, oldest first — the
  /// demotion candidates when a fast module fills up.
  std::unordered_map<std::uint32_t, std::deque<PageRef>> promoted_;
  MigrationStats stats_;
};

}  // namespace moca::os
