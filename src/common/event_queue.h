// Discrete-event scheduler used for memory-side timing.
//
// CPU cores are stepped cycle-by-cycle by sim::System, which jumps over
// cycles in which every core is idle up to the next event here; everything
// slower or asynchronous (DRAM command completion, controller wake-ups,
// refresh) is scheduled here at picosecond resolution. Events at equal
// timestamps run in insertion order, which keeps simulations deterministic.
//
// Implementation: a two-level hierarchical timing wheel plus a far-future
// overflow heap (PR 2). Level 0 buckets 256 ps of simulated time per slot
// over a ~1 us horizon; level 1 buckets one level-0 window per slot over a
// ~1 ms horizon; anything further sits in a (when, seq)-ordered binary heap
// and cascades into the wheels as their windows roll forward. Callbacks are
// stored in EventCallback's inline buffer, so the common path performs no
// heap allocation and no std::function copy per event (bench/
// micro_eventqueue.cc measures this). Execution order is byte-identical to
// the previous binary-heap scheduler: every slot batch is sorted by
// (when, seq) before it runs, which restores the global (time, FIFO) order
// regardless of which wheel level an event travelled through.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/time.h"

namespace moca {

/// Type-erased move-only `void()` callable with inline storage. Callables up
/// to kInlineBytes (every scheduler callback in the simulator) live in the
/// event itself; larger ones fall back to the heap and are counted so tests
/// and benches can assert the hot path stays allocation-free.
class EventCallback {
 public:
  /// Sized for the largest hot-path capture: a std::function completion
  /// handler (32 bytes on libstdc++) plus a timestamp.
  static constexpr std::size_t kInlineBytes = 48;

  EventCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback>>>
  EventCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (storage_) Fn(std::forward<F>(f));
      ops_ = inline_ops<Fn>();
    } else {
      ::new (storage_) Fn*(new Fn(std::forward<F>(f)));
      ops_ = heap_ops<Fn>();
      heap_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  EventCallback(EventCallback&& other) noexcept { move_from(other); }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// Number of oversized callbacks that took the heap path, process-wide.
  /// Zero in steady-state simulation; bench/micro_eventqueue.cc asserts it.
  [[nodiscard]] static std::uint64_t heap_fallbacks() {
    return heap_fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    void (*relocate)(void* from, void* to);  // move-construct + destroy from
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static const Ops* inline_ops() {
    static constexpr Ops ops = {
        [](void* s) { (*static_cast<Fn*>(s))(); },
        [](void* from, void* to) {
          Fn* f = static_cast<Fn*>(from);
          ::new (to) Fn(std::move(*f));
          f->~Fn();
        },
        [](void* s) { static_cast<Fn*>(s)->~Fn(); }};
    return &ops;
  }

  template <typename Fn>
  static const Ops* heap_ops() {
    static constexpr Ops ops = {
        [](void* s) { (**static_cast<Fn**>(s))(); },
        [](void* from, void* to) {
          ::new (to) Fn*(*static_cast<Fn**>(from));
        },
        [](void* s) { delete *static_cast<Fn**>(s); }};
    return &ops;
  }

  void move_from(EventCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  static inline std::atomic<std::uint64_t> heap_fallbacks_{0};

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
};

/// Hierarchical timing wheel with (time, FIFO) execution order.
class EventQueue {
 public:
  using Callback = EventCallback;

  EventQueue()
      : level0_(kLevel0Slots),
        level1_(kLevel1Slots),
        occ0_(kLevel0Slots / 64),
        occ1_(kLevel1Slots / 64) {}

  /// Schedules `cb` at absolute time `when` (>= current time).
  template <typename F>
  void schedule(TimePs when, F&& cb) {
    MOCA_CHECK_MSG(when >= now_, "scheduling into the past: when=" << when
                                                                   << " now="
                                                                   << now_);
    if (next_valid_) next_pending_ = std::min(next_pending_, when);
    insert(Event{when, next_seq_++, EventCallback(std::forward<F>(cb))});
    ++size_;
  }

  /// Runs every event with timestamp <= `until`, advancing current time.
  /// Events may schedule further events, including at the current time.
  void run_until(TimePs until) {
    // next_time() is cached, so the per-cycle drive from sim::System costs
    // one comparison when nothing is due.
    while (size_ != 0) {
      const TimePs next = next_time();
      if (next > until) break;
      next_valid_ = false;
      // `next` is the global minimum: every slot before its own is empty,
      // so the wheel can jump straight there.
      const std::uint64_t s0 = slot0_of(next);
      if (s0 >= base0_ + kLevel0Slots) jump_to(s0);
      cursor0_ = s0;
      run_slot(s0, until);
    }
    now_ = std::max(now_, until);
    if (size_ == 0) realign();
  }

  /// Current simulation time (last executed event or run_until bound).
  [[nodiscard]] TimePs now() const { return now_; }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Timestamp of the next pending event; only valid when !empty().
  [[nodiscard]] TimePs next_time() const {
    MOCA_CHECK(size_ != 0);
    if (!next_valid_) {
      next_pending_ = find_next_time();
      next_valid_ = true;
    }
    return next_pending_;
  }

  /// Pre-reserves per-slot storage: `level0_events` per level-0 slot and
  /// `level1_events` per level-1 slot (a level-1 slot buffers an entire
  /// level-0 window before its cascade, so it naturally needs more). Slot
  /// storage otherwise grows on demand and is then reused forever, so this
  /// is purely optional: it front-loads the one-time growth allocations,
  /// letting allocation-counting benchmarks measure a strict steady state
  /// (and letting latency-sensitive callers avoid rare growth stalls).
  void reserve_slot_capacity(std::size_t level0_events,
                             std::size_t level1_events) {
    for (auto& slot : level0_) slot.reserve(level0_events);
    for (auto& slot : level1_) slot.reserve(level1_events);
    batch_.reserve(level0_events);
    cascade_.reserve(level1_events);
    // Events past the level-1 horizon wait in the overflow heap; traffic
    // that rides just ahead of `now` dips into it at every horizon
    // boundary, so give it the same headroom as a level-1 slot.
    overflow_.reserve(level1_events);
  }

 private:
  // Level 0: 256 ps/slot x 4096 slots (~1.05 us horizon). Level 1: one
  // level-0 window per slot x 1024 slots (~1.07 ms horizon).
  static constexpr int kSlotShift = 8;                       // 256 ps
  static constexpr int kLevel0Bits = 12;                     // 4096 slots
  static constexpr int kLevel1Bits = 10;                     // 1024 slots
  static constexpr std::uint64_t kLevel0Slots = 1ULL << kLevel0Bits;
  static constexpr std::uint64_t kLevel1Slots = 1ULL << kLevel1Bits;
  static constexpr std::uint64_t kLevel0Mask = kLevel0Slots - 1;
  static constexpr std::uint64_t kLevel1Mask = kLevel1Slots - 1;

  struct Event {
    TimePs when;
    std::uint64_t seq;
    EventCallback cb;
  };
  /// Strict total order matching the legacy heap's pop order.
  static bool event_less(const Event& a, const Event& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
  /// Max-heap comparator that makes std::push_heap behave as a min-heap.
  struct OverflowLater {
    bool operator()(const Event& a, const Event& b) const {
      return event_less(b, a);
    }
  };

  [[nodiscard]] static std::uint64_t slot0_of(TimePs when) {
    return static_cast<std::uint64_t>(when) >> kSlotShift;
  }
  [[nodiscard]] static std::uint64_t slot1_of(TimePs when) {
    return static_cast<std::uint64_t>(when) >> (kSlotShift + kLevel0Bits);
  }

  void set_bit(std::vector<std::uint64_t>& occ, std::uint64_t idx) {
    occ[idx >> 6] |= 1ULL << (idx & 63);
  }
  void clear_bit(std::vector<std::uint64_t>& occ, std::uint64_t idx) {
    occ[idx >> 6] &= ~(1ULL << (idx & 63));
  }

  /// Routes an event to its wheel level (or the overflow heap).
  void insert(Event&& ev) {
    const std::uint64_t s0 = slot0_of(ev.when);
    if (s0 == active_slot0_) {
      // Re-entrant scheduling into the slot currently executing: the new
      // event carries the largest seq, so its sorted position is strictly
      // after the event that is running now.
      const auto pos = std::upper_bound(
          active_batch_->begin() +
              static_cast<std::ptrdiff_t>(active_index_ + 1),
          active_batch_->end(), ev, event_less);
      active_batch_->insert(pos, std::move(ev));
      return;
    }
    if (s0 < base0_ + kLevel0Slots) {
      const std::uint64_t idx = s0 & kLevel0Mask;
      level0_[idx].push_back(std::move(ev));
      set_bit(occ0_, idx);
      return;
    }
    const std::uint64_t s1 = slot1_of(ev.when);
    if (s1 < base1_ + kLevel1Slots) {
      const std::uint64_t idx = s1 & kLevel1Mask;
      level1_[idx].push_back(std::move(ev));
      set_bit(occ1_, idx);
      return;
    }
    overflow_.push_back(std::move(ev));
    std::push_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
  }

  /// Finds the first occupied slot index in [from, to] or returns npos.
  [[nodiscard]] static std::uint64_t scan_bitmap(
      const std::vector<std::uint64_t>& occ, std::uint64_t from,
      std::uint64_t to) {
    if (from > to) return kNpos;
    std::uint64_t word_idx = from >> 6;
    const std::uint64_t last_word = to >> 6;
    std::uint64_t word = occ[word_idx] & (~0ULL << (from & 63));
    for (;;) {
      if (word != 0) {
        const std::uint64_t idx =
            (word_idx << 6) +
            static_cast<std::uint64_t>(std::countr_zero(word));
        return idx <= to ? idx : kNpos;
      }
      if (word_idx == last_word) return kNpos;
      word = occ[++word_idx];
    }
  }

  /// Moves both wheel windows so that level-0 slot `target0` (home of the
  /// globally earliest event) falls inside the level-0 window. Every slot
  /// before the target is empty by the minimality argument, so empty level-1
  /// buckets are skipped wholesale instead of cascaded one by one.
  void jump_to(std::uint64_t target0) {
    const std::uint64_t s1 = target0 >> kLevel0Bits;
    base0_ = s1 << kLevel0Bits;
    if (s1 >= base1_ + kLevel1Slots) {
      // The earliest event sits in the overflow heap; by minimality level 1
      // is empty, so rebase it around the target and pull every overflow
      // event now inside the level-1 horizon into the wheels (moved, never
      // copied). Events with the target's own level-1 slot land in level 0
      // because base0_ was updated first.
      base1_ = s1 & ~kLevel1Mask;
      while (!overflow_.empty() &&
             slot1_of(overflow_.front().when) < base1_ + kLevel1Slots) {
        std::pop_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
        Event ev = std::move(overflow_.back());
        overflow_.pop_back();
        insert(std::move(ev));
      }
      return;
    }
    // The earliest event sits in level-1 bucket s1: cascade it into level 0.
    const std::uint64_t idx = s1 & kLevel1Mask;
    if (!level1_[idx].empty()) {
      cascade_.clear();
      cascade_.swap(level1_[idx]);
      clear_bit(occ1_, idx);
      for (Event& ev : cascade_) insert(std::move(ev));
      cascade_.clear();
    }
  }

  /// Sorts and executes one slot's batch up to `until`; events past `until`
  /// (same slot, later picosecond) go back into the slot.
  void run_slot(std::uint64_t s0, TimePs until) {
    const std::uint64_t idx = s0 & kLevel0Mask;
    batch_.clear();
    batch_.swap(level0_[idx]);
    clear_bit(occ0_, idx);
    // Most slots hold a single event; sorting one element is a no-op but
    // still pays two libstdc++ calls per slot.
    if (batch_.size() > 1) std::sort(batch_.begin(), batch_.end(), event_less);

    active_slot0_ = s0;
    active_batch_ = &batch_;
    std::size_t i = 0;
    for (; i < batch_.size(); ++i) {
      if (batch_[i].when > until) break;
      active_index_ = i;
      // Move the callback out before invoking: the callback may schedule
      // into this very batch and reallocate it.
      EventCallback cb = std::move(batch_[i].cb);
      now_ = batch_[i].when;
      --size_;
      cb();
    }
    active_slot0_ = kNpos;
    active_batch_ = nullptr;
    if (i < batch_.size()) {  // leftovers beyond until stay in the slot
      level0_[idx].reserve(batch_.size() - i);
      for (; i < batch_.size(); ++i) {
        level0_[idx].push_back(std::move(batch_[i]));
      }
      set_bit(occ0_, idx);
    }
    batch_.clear();
  }

  /// Exact earliest pending timestamp; wheel levels partition time, so the
  /// first occupied structure in (active batch, level 0, level 1, overflow)
  /// order wins.
  [[nodiscard]] TimePs find_next_time() const {
    TimePs best = kNoTime;
    if (active_batch_ != nullptr && active_index_ + 1 < active_batch_->size()) {
      // Called from inside an executing callback: the remainder of the
      // (sorted) batch is not in the wheel, and its head is a candidate.
      best = (*active_batch_)[active_index_ + 1].when;
    }
    const std::uint64_t idx = scan_bitmap(occ0_, cursor0_ & kLevel0Mask,
                                          kLevel0Mask);
    if (idx != kNpos) return std::min(best, batch_min(level0_[idx]));
    if (best != kNoTime) return best;
    // Level-1 slots in [current window's slot, base1_ + kLevel1Slots) are
    // later than every level-0 slot; scan them in ring order.
    const std::uint64_t first1 = base0_ >> kLevel0Bits;
    for (std::uint64_t s1 = first1; s1 < base1_ + kLevel1Slots; ++s1) {
      const std::uint64_t w = s1 & kLevel1Mask;
      if ((occ1_[w >> 6] >> (w & 63)) & 1) return batch_min(level1_[w]);
      // Skip ahead word-wise when the whole word is empty.
      if ((w & 63) == 0 && occ1_[w >> 6] == 0) s1 += 63;
    }
    MOCA_CHECK(!overflow_.empty());
    return overflow_.front().when;
  }

  [[nodiscard]] static TimePs batch_min(const std::vector<Event>& events) {
    MOCA_CHECK(!events.empty());
    TimePs best = events.front().when;
    for (const Event& ev : events) best = std::min(best, ev.when);
    return best;
  }

  /// With no events pending, jump the wheel windows to the current time so
  /// long idle stretches cost nothing.
  void realign() {
    const std::uint64_t s0 = slot0_of(now_);
    base0_ = s0 & ~kLevel0Mask;
    cursor0_ = s0;
    base1_ = slot1_of(now_) & ~kLevel1Mask;
  }

  static constexpr std::uint64_t kNpos = ~0ULL;
  static constexpr TimePs kNoTime = std::numeric_limits<TimePs>::max();

  std::vector<std::vector<Event>> level0_;
  std::vector<std::vector<Event>> level1_;
  std::vector<std::uint64_t> occ0_;
  std::vector<std::uint64_t> occ1_;
  std::vector<Event> overflow_;  // min-heap by (when, seq)
  std::vector<Event> batch_;     // slot under execution (capacity reused)
  std::vector<Event> cascade_;   // level-1 bucket being cascaded

  std::uint64_t base0_ = 0;    // first slot0 covered by level 0
  std::uint64_t cursor0_ = 0;  // next unprocessed slot0
  std::uint64_t base1_ = 0;    // first slot1 covered by level 1

  std::uint64_t active_slot0_ = kNpos;  // slot executing in run_slot
  std::vector<Event>* active_batch_ = nullptr;
  std::size_t active_index_ = 0;

  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  TimePs now_ = 0;
  mutable TimePs next_pending_ = 0;
  mutable bool next_valid_ = false;
};

}  // namespace moca
