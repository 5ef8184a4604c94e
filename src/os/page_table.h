// Per-process page table and per-core TLB — the per-memory-access fast path.
//
// Both structures here sit on the critical path of every simulated load and
// store (Core::translate runs once per memory micro-op), so they are built
// for O(1) expected time instead of the original O(capacity) linear scan /
// std::unordered_map. Replacement and counter semantics are bit-identical to
// the legacy implementations; tests/hotpath_equiv_test.cc keeps copies of
// the old code and proves parity on randomized tapes the same way
// event_queue_equiv_test.cc does for the event queue.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "os/types.h"

namespace moca::os {

/// Two-level radix page table: virtual page number -> global physical frame.
///
/// Level 1 decodes the fixed virtual layout (os/types.h) into one of six
/// regions — code, data, the three heap partitions, and the stack — whose
/// base VPNs are compile-time constants, so the decode is a handful of
/// compares with no hashing. Level 2 is a per-region directory of 512-page
/// leaves (2 MiB of VA each), grown on demand; segments are bump-allocated
/// from their base, so directories stay dense and small. Lookup is two
/// array indexes; for_each walks leaves in VPN order, which is both
/// cache-friendly for the auditor and deterministic (teardown free order no
/// longer depends on hash-map iteration).
class PageTable {
 public:
  [[nodiscard]] std::optional<Pfn> lookup(Vpn vpn) const {
    const Leaf* leaf = find_leaf(vpn);
    if (leaf == nullptr) return std::nullopt;
    const Pfn pfn = leaf->pfn[vpn & kLeafMask];
    if (pfn == kNoPfn) return std::nullopt;
    return pfn;
  }

  /// Installs a translation; the vpn must not be mapped yet.
  void map(Vpn vpn, Pfn pfn);

  /// Removes a translation; the vpn must be mapped.
  [[nodiscard]] Pfn unmap(Vpn vpn);

  [[nodiscard]] std::size_t mapped_pages() const { return mapped_; }

  /// Snapshot of every mapping in ascending VPN order (process teardown,
  /// diagnostics).
  [[nodiscard]] std::vector<std::pair<Vpn, Pfn>> entries() const;

  /// Visits every mapping as f(vpn, pfn) in ascending VPN order without
  /// materialising a snapshot (invariant auditor hot path).
  template <class F>
  void for_each(F&& f) const {
    for (const Region& region : regions_) {
      for (std::size_t d = 0; d < region.dir.size(); ++d) {
        const Leaf* leaf = region.dir[d].get();
        if (leaf == nullptr || leaf->used == 0) continue;
        const Vpn leaf_base = region.base + (static_cast<Vpn>(d) << kLeafBits);
        for (std::size_t i = 0; i < kLeafPages; ++i) {
          if (leaf->pfn[i] != kNoPfn) f(leaf_base + i, leaf->pfn[i]);
        }
      }
    }
  }

 private:
  static constexpr std::uint32_t kLeafBits = 9;  // 512 pages = 2 MiB of VA
  static constexpr std::size_t kLeafPages = std::size_t{1} << kLeafBits;
  static constexpr Vpn kLeafMask = kLeafPages - 1;
  static constexpr Pfn kNoPfn = ~Pfn{0};

  struct Leaf {
    std::array<Pfn, kLeafPages> pfn;
    std::uint32_t used = 0;  // mapped slots; leaf is droppable at 0
    Leaf() { pfn.fill(kNoPfn); }
  };

  struct Region {
    Vpn base = 0;  // first VPN decoded into this region
    std::vector<std::unique_ptr<Leaf>> dir;
  };

  // Regions are ascending, contiguous VPN intervals so for_each yields
  // ascending VPNs globally: code, data, heap-lat, heap-bw, heap-pow, the
  // unused VA gap above the heaps (decoded as data by segment_of but kept
  // separate here so the data directory stays dense), stack.
  static constexpr std::size_t kRegionCount = 7;

  /// Layout decode mirroring segment_of(); returns the region index.
  [[nodiscard]] static std::size_t region_of(Vpn vpn);

  [[nodiscard]] const Leaf* find_leaf(Vpn vpn) const {
    const Region& region = regions_[region_of(vpn)];
    const std::size_t d =
        static_cast<std::size_t>((vpn - region.base) >> kLeafBits);
    if (d >= region.dir.size()) return nullptr;
    return region.dir[d].get();
  }

  /// Leaf for vpn, growing the directory and leaf on demand.
  [[nodiscard]] Leaf& ensure_leaf(Vpn vpn);

  std::array<Region, kRegionCount> regions_ = make_regions();
  std::size_t mapped_ = 0;

  [[nodiscard]] static std::array<Region, kRegionCount> make_regions();
};

/// Small fully-associative LRU TLB keyed by (process, vpn).
///
/// Entries live in a fixed pool threaded onto an intrusive MRU->LRU list
/// (head = most recent); an open-addressing index (linear probing,
/// backward-shift deletion, load factor <= 0.5) maps (pid, vpn) to a pool
/// slot. A failed lookup memoises its key so the insert that follows a miss
/// — the only insert the core issues — skips the existence probe entirely,
/// folding the legacy lookup+insert double scan into one probe. Replacement
/// picks the list tail, which is exactly the legacy minimum-stamp victim
/// (stamps were strictly increasing, so stamp order == recency order).
class Tlb {
 public:
  explicit Tlb(std::uint32_t entries);

  /// Inline so Core::translate's per-access call collapses to the probe
  /// loop itself (one expected iteration at load factor <= 0.5).
  [[nodiscard]] std::optional<Pfn> lookup(ProcessId pid, Vpn vpn) {
    const std::size_t slot = probe(pid, vpn);
    if (table_[slot] != kNil) {
      const std::uint32_t idx = table_[slot];
      touch(idx);
      ++hits_;
      return entries_[idx].pfn;
    }
    ++misses_;
    miss_pid_ = pid;
    miss_vpn_ = vpn;
    miss_memo_valid_ = true;
    return std::nullopt;
  }
  void insert(ProcessId pid, Vpn vpn, Pfn pfn);
  void flush();

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Entry {
    Vpn vpn = 0;
    Pfn pfn = 0;
    ProcessId pid = 0;
    std::uint32_t lru_prev = kNil;
    std::uint32_t lru_next = kNil;
  };

  [[nodiscard]] std::size_t slot_of(ProcessId pid, Vpn vpn) const {
    return static_cast<std::size_t>(
               splitmix64(vpn ^ (static_cast<std::uint64_t>(pid) << 48))) &
           table_mask_;
  }

  /// Index slot holding (pid, vpn), or the empty slot where it would go.
  [[nodiscard]] std::size_t probe(ProcessId pid, Vpn vpn) const {
    std::size_t slot = slot_of(pid, vpn);
    while (table_[slot] != kNil) {
      const Entry& e = entries_[table_[slot]];
      if (e.pid == pid && e.vpn == vpn) return slot;
      slot = (slot + 1) & table_mask_;
    }
    return slot;
  }

  void index_insert(std::uint32_t entry_idx);
  void index_erase(std::size_t slot);

  void lru_unlink(std::uint32_t idx);
  void lru_push_front(std::uint32_t idx);
  void touch(std::uint32_t idx) {
    if (lru_head_ == idx) return;
    lru_unlink(idx);
    lru_push_front(idx);
  }

  std::uint32_t capacity_;
  std::size_t table_mask_ = 0;
  std::vector<std::uint32_t> table_;  // entry index or kNil
  std::vector<Entry> entries_;        // pool; size() grows to capacity_
  std::uint32_t lru_head_ = kNil;
  std::uint32_t lru_tail_ = kNil;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  // Last lookup miss, consumed by the next insert to skip its probe.
  ProcessId miss_pid_ = 0;
  Vpn miss_vpn_ = 0;
  bool miss_memo_valid_ = false;
};

}  // namespace moca::os
