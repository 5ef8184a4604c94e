// Differential tests for the memory-access fast path (PR 6): the
// hash-indexed intrusive-LRU Tlb, the radix PageTable and the memoised
// ObjectRegistry::find must be observationally identical to the legacy
// implementations they replaced — same hit/miss counters, same PFNs, same
// LRU victims, same object ids, same CheckError behavior — on randomized
// operation tapes (tests/proptest.h), the same way event_queue_equiv_test.cc
// checks the event queue against the original scheduler. The legacy
// implementations are embedded verbatim below as the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "dram/module.h"
#include "moca/object_registry.h"
#include "moca/policies.h"
#include "os/auditor.h"
#include "os/os.h"
#include "os/page_table.h"
#include "proptest.h"
#include "sim/runner.h"

namespace moca {
namespace {

using proptest::Config;
using proptest::Gen;
using proptest::Result;

// ---------------------------------------------------------------------------
// Legacy implementations (pre-PR-6), embedded as behavioral references.

/// The original flat-hash page table.
class LegacyPageTable {
 public:
  [[nodiscard]] std::optional<os::Pfn> lookup(os::Vpn vpn) const {
    const auto it = table_.find(vpn);
    if (it == table_.end()) return std::nullopt;
    return it->second;
  }

  void map(os::Vpn vpn, os::Pfn pfn) {
    const auto [it, inserted] = table_.emplace(vpn, pfn);
    (void)it;
    MOCA_CHECK_MSG(inserted, "double mapping of vpn " << vpn);
  }

  [[nodiscard]] os::Pfn unmap(os::Vpn vpn) {
    const auto it = table_.find(vpn);
    MOCA_CHECK_MSG(it != table_.end(), "unmap of unmapped vpn " << vpn);
    const os::Pfn pfn = it->second;
    table_.erase(it);
    return pfn;
  }

  [[nodiscard]] std::size_t mapped_pages() const { return table_.size(); }

  [[nodiscard]] std::vector<std::pair<os::Vpn, os::Pfn>> entries() const {
    return {table_.begin(), table_.end()};
  }

 private:
  std::unordered_map<os::Vpn, os::Pfn> table_;
};

/// The original O(capacity) linear-scan TLB with stamp-based LRU.
class LegacyTlb {
 public:
  explicit LegacyTlb(std::uint32_t entries) : capacity_(entries) {}

  [[nodiscard]] std::optional<os::Pfn> lookup(os::ProcessId pid, os::Vpn vpn) {
    for (Entry& e : entries_) {
      if (e.pid == pid && e.vpn == vpn) {
        e.lru = ++clock_;
        ++hits_;
        return e.pfn;
      }
    }
    ++misses_;
    return std::nullopt;
  }

  void insert(os::ProcessId pid, os::Vpn vpn, os::Pfn pfn) {
    for (Entry& e : entries_) {
      if (e.pid == pid && e.vpn == vpn) {
        e.pfn = pfn;
        e.lru = ++clock_;
        return;
      }
    }
    if (entries_.size() < capacity_) {
      entries_.push_back(Entry{pid, vpn, pfn, ++clock_});
      return;
    }
    Entry* victim = &entries_[0];
    for (Entry& e : entries_) {
      if (e.lru < victim->lru) victim = &e;
    }
    *victim = Entry{pid, vpn, pfn, ++clock_};
  }

  void flush() { entries_.clear(); }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    os::ProcessId pid = 0;
    os::Vpn vpn = 0;
    os::Pfn pfn = 0;
    std::uint64_t lru = 0;
  };
  std::uint32_t capacity_;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::vector<Entry> entries_;
};

/// The original attribution lookup: interval index only, no memo, no page
/// cache. Mirrors the pre-PR-6 ObjectRegistry::find byte for byte.
class LegacyRegistryFind {
 public:
  void add(std::uint64_t id, os::ProcessId pid, os::VirtAddr base,
           std::uint64_t bytes) {
    if (by_process_.size() <= pid) by_process_.resize(pid + 1);
    objects_.push_back(Obj{id, base, bytes, pid, true});
    by_process_[pid].emplace(base, objects_.size() - 1);
  }

  void remove(std::uint64_t id) {
    for (Obj& o : objects_) {
      if (o.id == id) {
        o.live = false;
        by_process_[o.pid].erase(o.base);
        return;
      }
    }
    MOCA_CHECK_MSG(false, "legacy remove of unknown id " << id);
  }

  /// Returns the id of the live object covering addr, or nullopt.
  [[nodiscard]] std::optional<std::uint64_t> find(os::ProcessId pid,
                                                  os::VirtAddr addr) const {
    if (pid >= by_process_.size()) return std::nullopt;
    const auto& index = by_process_[pid];
    auto it = index.upper_bound(addr);
    if (it == index.begin()) return std::nullopt;
    --it;
    const Obj& o = objects_[it->second];
    if (addr >= o.base && addr < o.base + o.bytes) return o.id;
    return std::nullopt;
  }

 private:
  struct Obj {
    std::uint64_t id;
    os::VirtAddr base;
    std::uint64_t bytes;
    os::ProcessId pid;
    bool live;
  };
  std::vector<Obj> objects_;
  std::vector<std::map<os::VirtAddr, std::size_t>> by_process_;
};

// ---------------------------------------------------------------------------
// TLB equivalence

/// Drives legacy and new TLBs with one random operation tape and requires
/// identical observable behavior after every step: lookup results (PFN or
/// miss), hit/miss counters (which pin down the exact hit sequence and thus
/// the exact LRU eviction order), across lookups, inserts (both the
/// insert-after-miss pattern the core uses and cold inserts), updates of
/// present keys, and flushes.
void tlb_equiv_property(Gen& g) {
  const std::uint32_t capacity =
      static_cast<std::uint32_t>(g.pick<std::uint64_t>({1, 2, 4, 64}));
  LegacyTlb legacy(capacity);
  os::Tlb fresh(capacity);

  // Small key pools force collisions, evictions and repeat hits.
  const std::uint64_t pids = 1 + g.below(3);
  const std::uint64_t vpns = 1 + g.below(2 * capacity + 4);
  const os::Vpn vpn_base = os::kHeapLatBase >> kPageShift;

  const std::uint64_t steps = 20 + g.below(180);
  for (std::uint64_t i = 0; i < steps; ++i) {
    const auto pid = static_cast<os::ProcessId>(g.below(pids));
    const os::Vpn vpn = vpn_base + g.below(vpns);
    switch (g.below(4)) {
      case 0:
      case 1: {  // the core's pattern: lookup, insert on miss
        const auto a = legacy.lookup(pid, vpn);
        const auto b = fresh.lookup(pid, vpn);
        PROP_REQUIRE_MSG(a == b, "lookup diverged at step " << i);
        if (!b) {
          const os::Pfn pfn = g.u64() % 1000;
          legacy.insert(pid, vpn, pfn);
          fresh.insert(pid, vpn, pfn);
        }
        break;
      }
      case 2: {  // cold insert (no preceding lookup): probe/update path
        const os::Pfn pfn = g.u64() % 1000;
        legacy.insert(pid, vpn, pfn);
        fresh.insert(pid, vpn, pfn);
        break;
      }
      case 3: {
        if (g.chance(0.1)) {
          legacy.flush();
          fresh.flush();
        } else {
          const auto a = legacy.lookup(pid, vpn);
          const auto b = fresh.lookup(pid, vpn);
          PROP_REQUIRE_MSG(a == b, "lookup diverged at step " << i);
        }
        break;
      }
    }
    PROP_REQUIRE_MSG(legacy.hits() == fresh.hits() &&
                         legacy.misses() == fresh.misses(),
                     "counters diverged at step "
                         << i << ": legacy " << legacy.hits() << "/"
                         << legacy.misses() << " vs new " << fresh.hits()
                         << "/" << fresh.misses());
  }
}

TEST(TlbEquiv, RandomTapesMatchLegacy) {
  Config cfg;
  cfg.seed = 0x71b0;
  cfg.cases = 400;
  const Result r = proptest::check("tlb-vs-legacy", cfg, tlb_equiv_property);
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(TlbEquiv, EvictionIsExactLruOrder) {
  // Directed check of the replacement argument: strictly-increasing stamps
  // mean stamp order == recency order, so the wheel must evict in exact LRU
  // order. Fill, touch the oldest entry, insert one more: the second-oldest
  // must be the victim.
  os::Tlb tlb(4);
  const os::Vpn v = os::kHeapBwBase >> kPageShift;
  for (os::Vpn i = 0; i < 4; ++i) tlb.insert(7, v + i, 100 + i);
  ASSERT_TRUE(tlb.lookup(7, v + 0).has_value());  // v+0 becomes MRU
  tlb.insert(7, v + 9, 900);                      // must evict v+1
  EXPECT_TRUE(tlb.lookup(7, v + 0).has_value());
  EXPECT_FALSE(tlb.lookup(7, v + 1).has_value());
  EXPECT_TRUE(tlb.lookup(7, v + 2).has_value());
  EXPECT_TRUE(tlb.lookup(7, v + 3).has_value());
  EXPECT_EQ(tlb.lookup(7, v + 9), std::optional<os::Pfn>(900));
}

TEST(TlbEquiv, FlushKeepsCountersAndZeroCapacityHolds) {
  os::Tlb tlb(2);
  const os::Vpn v = os::kDataBase >> kPageShift;
  tlb.insert(0, v, 1);
  ASSERT_TRUE(tlb.lookup(0, v).has_value());
  ASSERT_FALSE(tlb.lookup(0, v + 1).has_value());
  tlb.flush();
  EXPECT_EQ(tlb.hits(), 1u);    // counters survive the flush (legacy did
  EXPECT_EQ(tlb.misses(), 1u);  // not reset them either)
  EXPECT_FALSE(tlb.lookup(0, v).has_value());

  os::Tlb none(0);  // capacity 0: insert is a no-op, every lookup misses
  none.insert(0, v, 1);
  EXPECT_FALSE(none.lookup(0, v).has_value());
  EXPECT_EQ(none.misses(), 1u);
}

// ---------------------------------------------------------------------------
// Page-table equivalence

/// Random map/unmap/lookup tapes over every segment of the fixed layout;
/// the radix table must agree with the flat hash on every lookup, on
/// mapped_pages, and on the full entries() snapshot (legacy order was
/// unspecified, so both are compared sorted).
void page_table_equiv_property(Gen& g) {
  LegacyPageTable legacy;
  os::PageTable fresh;

  // Candidate vpns spanning all regions, including leaf-boundary offsets
  // (511, 512) and the far ends of segments.
  const std::vector<os::VirtAddr> bases = {
      os::kCodeBase,   os::kDataBase,           os::kHeapLatBase,
      os::kHeapBwBase, os::kHeapPowBase,        os::kStackBase,
      os::kHeapPowBase + os::kSegmentSpan / 2,  // deep inside a segment
  };
  std::vector<os::Vpn> mapped;
  os::Pfn next_pfn = 1;

  const std::uint64_t steps = 20 + g.below(180);
  for (std::uint64_t i = 0; i < steps; ++i) {
    const os::Vpn vpn = (g.pick(bases) >> kPageShift) + g.below(1100);
    switch (g.below(3)) {
      case 0: {  // map if absent (mirrors Os::translate's demand paging)
        if (!legacy.lookup(vpn)) {
          legacy.map(vpn, next_pfn);
          fresh.map(vpn, next_pfn);
          mapped.push_back(vpn);
          ++next_pfn;
        }
        break;
      }
      case 1: {  // unmap a random mapped page (process teardown)
        if (!mapped.empty() && g.chance(0.4)) {
          const std::size_t k =
              static_cast<std::size_t>(g.below(mapped.size()));
          const os::Vpn victim = mapped[k];
          mapped.erase(mapped.begin() + static_cast<std::ptrdiff_t>(k));
          PROP_REQUIRE(legacy.unmap(victim) == fresh.unmap(victim));
        }
        break;
      }
      case 2: {
        PROP_REQUIRE_MSG(legacy.lookup(vpn) == fresh.lookup(vpn),
                         "lookup diverged for vpn " << vpn);
        break;
      }
    }
    PROP_REQUIRE(legacy.mapped_pages() == fresh.mapped_pages());
  }

  auto a = legacy.entries();
  auto b = fresh.entries();
  std::sort(a.begin(), a.end());
  auto b_sorted = b;
  std::sort(b_sorted.begin(), b_sorted.end());
  PROP_REQUIRE_MSG(a == b_sorted, "entries() snapshots diverged");
  // The radix table additionally guarantees ascending-VPN iteration.
  PROP_REQUIRE_MSG(b == b_sorted, "radix entries() not in ascending order");
}

TEST(PageTableEquiv, RandomTapesMatchLegacy) {
  Config cfg;
  cfg.seed = 0x9ad1;
  // The mid-segment base makes each case grow a multi-MiB radix directory
  // (worth covering: it proves sparse offsets work), so keep the case count
  // moderate to stay fast under ctest.
  cfg.cases = 100;
  const Result r =
      proptest::check("pagetable-vs-legacy", cfg, page_table_equiv_property);
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(PageTableEquiv, CheckErrorParityOnMisuse) {
  const os::Vpn vpn = os::kHeapLatBase >> kPageShift;
  {
    LegacyPageTable legacy;
    os::PageTable fresh;
    legacy.map(vpn, 1);
    fresh.map(vpn, 1);
    EXPECT_THROW(legacy.map(vpn, 2), CheckError);  // double map
    EXPECT_THROW(fresh.map(vpn, 2), CheckError);
  }
  {
    LegacyPageTable legacy;
    os::PageTable fresh;
    EXPECT_THROW((void)legacy.unmap(vpn), CheckError);  // unmap unmapped
    EXPECT_THROW((void)fresh.unmap(vpn), CheckError);
  }
}

// ---------------------------------------------------------------------------
// Attribution equivalence

/// Random allocate/free/find tapes: the memo + page-cache fast path must
/// return exactly the object the plain interval walk returns — including
/// immediately after remove() (generation invalidation), for sub-page
/// objects sharing a page, and for addresses in gaps and at range edges.
void attribution_equiv_property(Gen& g) {
  core::ObjectRegistry registry;
  LegacyRegistryFind legacy;

  // Bump allocation per (pid, partition), like MocaAllocator: objects never
  // overlap, freed ranges are not reused (ids stay unique).
  const std::uint64_t pids = 1 + g.below(2);
  std::vector<os::VirtAddr> cursor = {os::kHeapLatBase,
                                      os::kHeapLatBase + os::kSegmentSpan / 2};
  std::vector<std::uint64_t> live;

  const std::uint64_t steps = 20 + g.below(120);
  for (std::uint64_t i = 0; i < steps; ++i) {
    switch (g.below(4)) {
      case 0: {  // allocate: sub-page (64B) or page-multiple sizes
        const auto pid = static_cast<os::ProcessId>(g.below(pids));
        const std::uint64_t bytes =
            g.chance(0.4) ? 64 : kPageBytes * (1 + g.below(4));
        auto& base = cursor[g.chance(0.5) ? 0 : 1];
        const std::uint64_t id =
            registry.add(i, pid, base, bytes, os::MemClass::kLatency, "o");
        legacy.add(id, pid, base, bytes);
        live.push_back(id);
        base += bytes + (g.chance(0.3) ? 64 : 0);  // occasional gap
        break;
      }
      case 1: {  // free a random live object
        if (!live.empty()) {
          const std::size_t k = static_cast<std::size_t>(g.below(live.size()));
          const std::uint64_t id = live[k];
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
          registry.remove(id);
          legacy.remove(id);
        }
        break;
      }
      default: {  // probe: edges of a known object, or a random address
        os::VirtAddr addr;
        auto pid = static_cast<os::ProcessId>(g.below(pids));
        if (!live.empty() && g.chance(0.7)) {
          const auto& inst = registry.instance(g.pick(live));
          pid = inst.pid;
          // first byte, last byte, one past the end, or interior
          const std::uint64_t sel = g.below(4);
          addr = sel == 0   ? inst.base
                 : sel == 1 ? inst.base + inst.bytes - 1
                 : sel == 2 ? inst.base + inst.bytes
                            : inst.base + g.below(inst.bytes);
        } else {
          addr = os::kHeapLatBase + g.below(os::kSegmentSpan);
        }
        const core::ObjectInstance* got = registry.find(pid, addr);
        const auto want = legacy.find(pid, addr);
        PROP_REQUIRE_MSG(
            (got == nullptr) == !want.has_value(),
            "find presence diverged at step " << i << " addr " << addr);
        if (got != nullptr) {
          PROP_REQUIRE_MSG(got->id == *want, "find id diverged at step "
                                                 << i << ": " << got->id
                                                 << " vs " << *want);
        }
        // Re-probe immediately: the memo path must agree with itself.
        PROP_REQUIRE(registry.find(pid, addr) == got);
      }
    }
  }
}

TEST(AttributionEquiv, RandomTapesMatchLegacy) {
  Config cfg;
  cfg.seed = 0xa77b;
  cfg.cases = 300;
  const Result r =
      proptest::check("attribution-vs-legacy", cfg, attribution_equiv_property);
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(AttributionEquiv, RemoveInvalidatesMemoAndPageCache) {
  // Directed regression guard for the generation-bump invalidation: hit an
  // object through every cache tier, free it, and require find() to miss.
  core::ObjectRegistry registry;
  const os::VirtAddr base = os::kHeapBwBase;
  const std::uint64_t id =
      registry.add(1, 0, base, 4 * kPageBytes, os::MemClass::kBandwidth, "a");
  ASSERT_NE(registry.find(0, base + 100), nullptr);     // slow path + caches
  ASSERT_NE(registry.find(0, base + 100), nullptr);     // memo hit
  ASSERT_NE(registry.find(0, base + kPageBytes), nullptr);
  registry.remove(id);
  EXPECT_EQ(registry.find(0, base + 100), nullptr);
  EXPECT_EQ(registry.find(0, base + kPageBytes), nullptr);

  // A new object over the same range must resolve to the new id.
  const std::uint64_t id2 =
      registry.add(2, 0, base, 4 * kPageBytes, os::MemClass::kBandwidth, "b");
  const core::ObjectInstance* hit = registry.find(0, base + 100);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, id2);
}

// ---------------------------------------------------------------------------
// Auditor over the radix table

TEST(RadixAuditor, InvariantsHoldAndCorruptionIsStillCaught) {
  // A1-A4 reconcile the radix page tables against frame accounting; a
  // planted alias (A2) must still be caught now that the auditor's
  // for_each walks radix leaves instead of a hash map.
  EventQueue events;
  dram::MemoryModule module(dram::make_ddr3(), 16 * MiB, 1, events, "m");
  os::PhysicalMemory phys;
  phys.add_module(&module);
  core::HomogeneousPolicy policy(dram::MemKind::kDdr3);
  os::Os os(phys, policy);
  const os::ProcessId pid = os.create_process();
  // Touch pages in several segments so the audit walks multiple regions.
  for (int p = 0; p < 6; ++p) {
    (void)os.translate(pid, os::kHeapPowBase + p * kPageBytes);
    (void)os.translate(pid, os::kHeapLatBase + p * kPageBytes);
    (void)os.translate(pid, os::kStackBase + p * kPageBytes);
  }
  os::Auditor auditor(os);
  auditor.run_audit();
  EXPECT_EQ(auditor.counters().pages_checked, 18u);

  os::PageTable& table = os.address_space(pid).page_table();
  const auto entries = table.entries();
  ASSERT_FALSE(entries.empty());
  table.map(entries[0].first + 9999, entries[0].second);  // alias a frame
  EXPECT_THROW(auditor.run_audit(), CheckError);
}

TEST(RadixAuditor, FullSimulationAuditPassesA1ThroughA5) {
  // End-to-end: a MOCA run with --audit reconciles page tables (A1-A4) and
  // the object registry's live ranges (A5) every epoch and at teardown.
  sim::Experiment e;
  e.instructions = 30'000;
  e.observability.audit = true;
  const auto db = sim::build_profile_db({"gcc"}, e);
  const sim::RunResult r =
      sim::run_workload({"gcc"}, sim::SystemChoice::kMoca, db, e);
  EXPECT_EQ(r.cores[0].core.committed, e.instructions);
}

}  // namespace
}  // namespace moca
