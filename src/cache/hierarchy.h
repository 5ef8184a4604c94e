// Two-level private cache hierarchy with MSHRs (Table I).
//
// Policy summary:
//  - L1D: write-back, write-allocate-on-load only (store misses bypass L1
//    and allocate at L2, a write-around simplification that keeps the L1
//    MSHRs available for loads).
//  - L2 (the LLC): write-back, write-allocate; 20-entry MSHR file with
//    same-line merging; misses that find the MSHR file full are deferred
//    and replayed as entries free up.
//  - Timing: L1 hit 2 cycles, L2 hit 20 cycles, LLC miss = 20 cycles + DRAM.
//  - Dirty L2 victims are written back to memory; dirty L1 victims are
//    folded into L2 (or forwarded to memory if L2 no longer has the line).
//
// The hierarchy reports every demand LLC miss to an observer with its
// AccessContext — this is the hook MOCA's profiler uses to attribute
// misses to memory objects (Sec. IV-B).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "common/check.h"
#include "common/event_queue.h"
#include "common/small_vec.h"
#include "common/stat_registry.h"
#include "common/time.h"

namespace moca::cache {

/// Sentinel object id for accesses that belong to no named heap object.
inline constexpr std::uint64_t kNoObject = ~0ULL;

/// Attribution tags carried by every memory access.
struct AccessContext {
  std::uint32_t core = 0;
  std::uint32_t process = 0;
  std::uint64_t object = kNoObject;
  /// Virtual address of the access (page-grain consumers: the dynamic
  /// page-migration baseline tracks per-page heat with it).
  std::uint64_t vaddr = 0;
  /// os::Segment of the access (stored as its integer value to keep this
  /// header free of OS dependencies); used for Fig. 16 attribution.
  std::uint8_t segment = 0;
  bool is_load = true;
};

/// Completion callback with a flat fast path (PR 6). Every per-access
/// callback the simulator installs is a (function pointer, object pointer,
/// 64-bit payload) triple — `complete(seq)` on a core, `finish_l1_fill(line)`
/// on a hierarchy — so storing the triple directly avoids the indirect
/// manager calls std::function pays on every construct, move and destroy.
/// Arbitrary callables (tests, benches) still convert implicitly and run
/// through a heap thunk; that path never executes per simulated access.
class CompletionFn {
 public:
  using RawFn = void (*)(void* obj, std::uint64_t arg, TimePs when);

  CompletionFn() = default;
  CompletionFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  CompletionFn(RawFn fn, void* obj, std::uint64_t arg)
      : fn_(fn), obj_(obj), arg_(arg) {}

  /// Generic callables: erased behind a heap thunk. Intentionally implicit
  /// so `issue_load(addr, ctx, [&](TimePs t) { ... })` keeps working.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, CompletionFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                std::is_invocable_v<std::decay_t<F>&, TimePs>>>
  CompletionFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (std::is_empty_v<D> && std::is_trivially_destructible_v<D> &&
                  std::is_default_constructible_v<D>) {
      fn_ = &stateless_thunk<D>;  // captureless lambdas: no heap
    } else {
      fn_ = &invoke_thunk<D>;
      obj_ = new D(std::forward<F>(f));
      del_ = &delete_thunk<D>;
    }
  }

  CompletionFn(CompletionFn&& o) noexcept
      : fn_(o.fn_), obj_(o.obj_), arg_(o.arg_), del_(o.del_) {
    o.fn_ = nullptr;
    o.obj_ = nullptr;
    o.del_ = nullptr;
  }
  CompletionFn& operator=(CompletionFn&& o) noexcept {
    if (this != &o) {
      if (del_ != nullptr) del_(obj_);
      fn_ = o.fn_;
      obj_ = o.obj_;
      arg_ = o.arg_;
      del_ = o.del_;
      o.fn_ = nullptr;
      o.obj_ = nullptr;
      o.del_ = nullptr;
    }
    return *this;
  }
  CompletionFn(const CompletionFn&) = delete;
  CompletionFn& operator=(const CompletionFn&) = delete;
  ~CompletionFn() {
    if (del_ != nullptr) del_(obj_);
  }

  explicit operator bool() const { return fn_ != nullptr; }
  void operator()(TimePs when) const { fn_(obj_, arg_, when); }

 private:
  template <typename F>
  static void invoke_thunk(void* obj, std::uint64_t /*arg*/, TimePs when) {
    (*static_cast<F*>(obj))(when);
  }
  template <typename F>
  static void stateless_thunk(void* /*obj*/, std::uint64_t /*arg*/,
                              TimePs when) {
    F{}(when);
  }
  template <typename F>
  static void delete_thunk(void* obj) {
    delete static_cast<F*>(obj);
  }

  RawFn fn_ = nullptr;
  void* obj_ = nullptr;
  std::uint64_t arg_ = 0;
  // Deleter for the heap-thunk path; nullptr for the flat path, so the
  // per-access destructor is one never-taken branch.
  void (*del_)(void*) = nullptr;
};

/// Synchronous outcome of issuing a load.
enum class IssueResult {
  kNoMshr,   // all L1 MSHRs busy; caller must retry later
  kL1Hit,    // completes in L1 latency
  kL2Hit,    // completes in L2 latency
  kLlcMiss,  // goes to DRAM; completion via callback
};

struct HierarchyStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t l1_load_hits = 0;
  std::uint64_t l1_load_merges = 0;  // loads absorbed by a pending L1 miss
  std::uint64_t l2_hits = 0;
  std::uint64_t llc_misses = 0;  // demand fills sent to memory
  std::uint64_t writebacks = 0;  // dirty lines written to memory
  std::uint64_t prefetches = 0;  // prefetch fills sent to memory
  std::uint64_t l1_accesses = 0;
  std::uint64_t l2_accesses = 0;

  /// Subtracts a warmup-snapshot baseline (all counters are monotonic).
  HierarchyStats& operator-=(const HierarchyStats& o) {
    loads -= o.loads;
    stores -= o.stores;
    l1_load_hits -= o.l1_load_hits;
    l1_load_merges -= o.l1_load_merges;
    l2_hits -= o.l2_hits;
    llc_misses -= o.llc_misses;
    writebacks -= o.writebacks;
    prefetches -= o.prefetches;
    l1_accesses -= o.l1_accesses;
    l2_accesses -= o.l2_accesses;
    return *this;
  }
};

/// Fixed-capacity MSHR file: a flat array of (line, entry) slots sized by
/// the cache's `mshrs` at construction (PR 2). MSHR files hold at most a
/// few tens of in-flight lines, so a linear scan beats hashing — no
/// rehashing, no node allocation, and slot references stay stable for the
/// entry's whole lifetime. Lookup order is irrelevant to simulated behavior
/// (entries are only ever found by line, never iterated).
template <typename Entry>
class MshrBook {
 public:
  explicit MshrBook(std::size_t capacity) : slots_(capacity) {}

  [[nodiscard]] Entry* find(std::uint64_t line) {
    if (size_ == 0) return nullptr;  // every load probes; skip empty books
    for (Slot& s : slots_) {
      if (s.used && s.line == line) return &s.entry;
    }
    return nullptr;
  }

  /// Claims a free slot for `line`. Caller guarantees !full() and that the
  /// line has no entry yet. The reference stays valid until take(line).
  Entry& acquire(std::uint64_t line) {
    for (Slot& s : slots_) {
      if (!s.used) {
        s.used = true;
        s.line = line;
        ++size_;
        return s.entry;
      }
    }
    throw CheckError("MshrBook::acquire: no free slot");
  }

  /// Removes the entry for `line`, returning it by value (moved out, so the
  /// slot is reusable before the caller finishes consuming the entry).
  Entry take(std::uint64_t line) {
    for (Slot& s : slots_) {
      if (s.used && s.line == line) {
        s.used = false;
        --size_;
        Entry out = std::move(s.entry);
        s.entry = Entry{};  // move leaves flags behind; reset for reuse
        return out;
      }
    }
    throw CheckError("MshrBook::take: no entry for the line");
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool full() const { return size_ == slots_.size(); }

 private:
  struct Slot {
    std::uint64_t line = 0;
    bool used = false;
    Entry entry;
  };
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// One core's private L1D + L2 and their miss machinery.
class MemHierarchy {
 public:
  /// Issues a line access to memory; `on_complete` fires at data return.
  /// `on_complete` may be empty for writebacks.
  using Backend = std::function<void(std::uint64_t paddr, bool is_write,
                                     std::function<void(TimePs)> on_complete)>;
  using LoadCallback = CompletionFn;
  using MissObserver = std::function<void(const AccessContext&)>;

  MemHierarchy(const CacheConfig& l1_config, const CacheConfig& l2_config,
               EventQueue& events, Backend backend);

  MemHierarchy(const MemHierarchy&) = delete;
  MemHierarchy& operator=(const MemHierarchy&) = delete;

  /// Starts a load at the current event-queue time. On kNoMshr nothing was
  /// recorded and the caller should retry. Otherwise `cb` fires exactly once
  /// at completion time.
  IssueResult issue_load(std::uint64_t paddr, const AccessContext& ctx,
                         LoadCallback cb);

  /// Retires a store. Never rejected: store misses that cannot get an L2
  /// MSHR wait in an internal queue.
  void issue_store(std::uint64_t paddr, const AccessContext& ctx);

  /// Installs the demand-LLC-miss observer (at most one; MOCA's profiler).
  void set_llc_miss_observer(MissObserver observer) {
    miss_observer_ = std::move(observer);
  }

  /// Enables a next-line prefetcher at L2: each demand miss to line X also
  /// fetches X+1..X+degree when absent and MSHRs allow. Off by default
  /// (the paper's Table I machine has no prefetcher).
  void enable_next_line_prefetch(std::uint32_t degree) {
    prefetch_degree_ = degree;
  }

  /// Registers this hierarchy's counters under `prefix` (e.g.
  /// "core0/cache"); probes read the live HierarchyStats fields.
  void register_stats(StatRegistry& registry,
                      const std::string& prefix) const;

  [[nodiscard]] const HierarchyStats& stats() const { return stats_; }
  [[nodiscard]] const Cache& l1() const { return l1_; }
  [[nodiscard]] const Cache& l2() const { return l2_; }
  [[nodiscard]] std::size_t l1_mshrs_in_use() const {
    return l1_mshr_.size();
  }
  [[nodiscard]] std::size_t l2_mshrs_in_use() const {
    return l2_mshr_.size();
  }
  [[nodiscard]] std::size_t deferred_requests() const {
    return l2_deferred_.size();
  }

 private:
  /// Runs when the line is available at L2 level (fill done or L2 hit).
  using L2Action = CompletionFn;

  // One waiter/action is the overwhelmingly common case (two with a merge);
  // the inline capacity keeps MSHR traffic allocation-free.
  struct L1Entry {
    SmallVec<LoadCallback, 2> waiters;
    bool store_merge = false;  // a store targets the line being filled
    bool llc_miss = false;     // fill comes from DRAM, not L2
  };
  struct L2Entry {
    SmallVec<L2Action, 2> actions;
    bool dirty_fill = false;  // a store allocated/joined this fill
  };
  struct Deferred {
    std::uint64_t line = 0;
    AccessContext ctx;
    L2Action action;  // empty for pure store fills
    bool dirty_fill = false;
  };

  enum class L2Route { kHit, kMiss };

  /// Sends a line-granularity request toward L2/memory. `action` (if any)
  /// runs when the line is available at L2; `dirty_fill` marks the fill
  /// dirty (store allocation).
  L2Route route_to_l2(std::uint64_t line, const AccessContext& ctx,
                      L2Action action, bool dirty_fill);
  void start_l2_miss(std::uint64_t line, const AccessContext& ctx,
                     L2Action action, bool dirty_fill,
                     bool is_prefetch = false);
  void maybe_prefetch(std::uint64_t line);
  void on_memory_fill(std::uint64_t line, TimePs when);
  void finish_l1_fill(std::uint64_t line, TimePs when);
  void fill_l2(std::uint64_t line, bool dirty, TimePs when);
  void drain_deferred();
  void write_dirty_victim_to_l2(std::uint64_t victim_line_addr);

  [[nodiscard]] TimePs now() const { return events_.now(); }

  Cache l1_;
  Cache l2_;
  EventQueue& events_;
  Backend backend_;
  MissObserver miss_observer_;
  MshrBook<L1Entry> l1_mshr_;  // keyed by line index
  MshrBook<L2Entry> l2_mshr_;
  // Unbounded overflow for L2-MSHR-full misses; replayed FIFO as entries
  // free up. Not hot (only touched under MSHR pressure), so a deque is fine.
  std::deque<Deferred> l2_deferred_;
  HierarchyStats stats_;
  TimePs l1_latency_;
  TimePs l2_latency_;
  std::uint32_t prefetch_degree_ = 0;
};

}  // namespace moca::cache
