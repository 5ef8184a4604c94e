#include "os/migration.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"
#include "common/units.h"

namespace moca::os {

PageMigrator::PageMigrator(Os& os, MigrationConfig config)
    : os_(os), config_(config) {
  MOCA_CHECK(config_.epoch_cycles > 0);
}

void PageMigrator::record_miss(ProcessId pid, VirtAddr vaddr) {
  ++heat_[key(pid, vaddr >> kPageShift)];
}

bool PageMigrator::remap(const PageRef& page, std::uint32_t target_module) {
  if (!os_.try_remap(page.pid, page.vpn, target_module)) return false;
  stats_.copied_lines += kPageBytes / kLineBytes;
  return true;
}

bool PageMigrator::promote(const PageRef& page, std::uint32_t target_module) {
  if (remap(page, target_module)) {
    promoted_[target_module].push_back(page);
    ++stats_.promotions;
    return true;
  }
  // Target full: demote this engine's oldest promoted page to a slow
  // module, then retry once.
  auto& queue = promoted_[target_module];
  PhysicalMemory& phys = os_.physical_memory();
  while (!queue.empty()) {
    const PageRef victim = queue.front();
    queue.pop_front();
    bool demoted = false;
    for (std::uint32_t m = 0; m < phys.module_count() && !demoted; ++m) {
      const dram::MemKind kind = phys.module(m).kind();
      if (kind == dram::MemKind::kRldram3 || kind == dram::MemKind::kHbm) {
        continue;  // only demote to slow modules
      }
      demoted = remap(victim, m);
    }
    if (!demoted) continue;  // no slow space for this victim; try next
    ++stats_.demotions;
    if (remap(page, target_module)) {
      promoted_[target_module].push_back(page);
      ++stats_.promotions;
      return true;
    }
  }
  return false;
}

bool PageMigrator::run_epoch() {
  ++stats_.epochs;
  PhysicalMemory& phys = os_.physical_memory();
  std::vector<std::uint32_t> fast =
      phys.modules_of_kind(dram::MemKind::kRldram3);
  for (const std::uint32_t m : phys.modules_of_kind(dram::MemKind::kHbm)) {
    fast.push_back(m);
  }
  if (fast.empty()) {
    heat_.clear();
    return false;
  }
  const std::unordered_set<std::uint32_t> fast_set(fast.begin(), fast.end());

  std::vector<std::pair<std::uint32_t, std::uint64_t>> hot;  // (heat, key)
  hot.reserve(heat_.size());
  for (const auto& [k, count] : heat_) {
    if (count >= config_.hot_threshold) hot.emplace_back(count, k);
  }
  std::sort(hot.begin(), hot.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  std::uint32_t moved = 0;
  for (const auto& [count, k] : hot) {
    if (moved >= config_.max_migrations_per_epoch) break;
    PageRef page;
    page.pid = static_cast<ProcessId>(k >> 48);
    page.vpn = k & ((1ULL << 48) - 1);
    const auto pfn =
        os_.address_space(page.pid).page_table().lookup(page.vpn);
    if (!pfn) continue;  // unmapped since sampling
    const std::uint32_t current =
        phys.locate(*pfn << kPageShift).module_index;
    if (fast_set.contains(current)) continue;  // already promoted

    bool placed = false;
    for (const std::uint32_t target : fast) {
      if (promote(page, target)) {
        placed = true;
        break;
      }
    }
    if (placed) {
      ++moved;
    } else {
      ++stats_.denied_no_space;
    }
  }
  heat_.clear();
  return moved > 0;
}

void PageMigrator::register_stats(StatRegistry& registry,
                                  const std::string& prefix) const {
  registry.counter(prefix + "/epochs", &stats_.epochs);
  registry.counter(prefix + "/promotions", &stats_.promotions);
  registry.counter(prefix + "/demotions", &stats_.demotions);
  registry.counter(prefix + "/denied_no_space", &stats_.denied_no_space);
  registry.counter(prefix + "/copied_lines", &stats_.copied_lines);
  registry.gauge(prefix + "/tracked_pages",
                 [this] { return static_cast<double>(heat_.size()); });
}

}  // namespace moca::os
