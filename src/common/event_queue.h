// Discrete-event scheduler used for memory-side timing.
//
// CPU cores are stepped cycle-by-cycle by sim::System, which jumps over
// cycles in which every core is idle up to the next event here; everything
// slower or asynchronous (DRAM command completion, controller wake-ups,
// refresh) is scheduled here at picosecond resolution. Events at equal
// timestamps run in insertion order, which keeps simulations deterministic.
//
// Implementation: one binary min-heap of 24-byte (when, seq, slot) keys over
// a slab of EventCallbacks; a free list hands the slots of executed events
// to new ones. The simulator keeps few events pending (a few dozen at most
// on a 4-core mix, docs/perf.md), so the heap stays shallow and sifting
// moves only the small keys, never a callback. Callbacks are stored in
// EventCallback's inline buffer, so once the slab and heap have grown to the
// peak pending count, scheduling performs no heap allocation (bench/
// micro_eventqueue.cc measures this). (when, seq) is a strict total order,
// so events run in exactly the order of the original std::priority_queue
// scheduler (tests/event_queue_equiv_test.cc).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
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

/// Binary min-heap scheduler with (time, FIFO) execution order.
class EventQueue {
 public:
  /// Schedules `cb` at absolute time `when` (>= current time).
  template <typename F>
  void schedule(TimePs when, F&& cb) {
    MOCA_CHECK_MSG(when >= now_, "scheduling into the past: when=" << when
                                                                   << " now="
                                                                   << now_);
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back(std::forward<F>(cb));
    } else {
      slot = free_.back();
      slab_[slot] = EventCallback(std::forward<F>(cb));
      free_.pop_back();
    }
    heap_.push_back(Key{when, next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Runs every event with timestamp <= `until`, advancing current time.
  /// Events may schedule further events, including at the current time.
  void run_until(TimePs until) {
    while (!heap_.empty() && heap_.front().when <= until) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      const Key key = heap_.back();
      heap_.pop_back();
      // Move the callback out before invoking: the callback may schedule
      // new events and grow (reallocate) the slab.
      EventCallback cb = std::move(slab_[key.slot]);
      free_.push_back(key.slot);
      now_ = key.when;
      cb();
    }
    now_ = std::max(now_, until);
  }

  /// Current simulation time (last executed event or run_until bound).
  [[nodiscard]] TimePs now() const { return now_; }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Timestamp of the next pending event; only valid when !empty().
  [[nodiscard]] TimePs next_time() const {
    MOCA_CHECK(!heap_.empty());
    return heap_.front().when;
  }

 private:
  /// Heap entry: the event's timestamp, its schedule order and the slab
  /// slot holding its callback. (when, seq) is a strict total order.
  struct Key {
    TimePs when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Max-heap comparator that makes the std heap algorithms a min-heap.
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::vector<Key> heap_;
  std::vector<EventCallback> slab_;  // callbacks, indexed by Key::slot
  std::vector<std::uint32_t> free_;  // slab slots holding no event
  std::uint64_t next_seq_ = 0;
  TimePs now_ = 0;
};

}  // namespace moca
