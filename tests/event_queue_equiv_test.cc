// Differential test: EventQueue (a key heap over a callback slab) must
// execute events in exactly the order of the original std::priority_queue
// scheduler. That implementation is embedded verbatim below as the
// reference; both queues are driven with identical schedules — including
// re-entrant, equal-time, run_until bounds between equal-time events, and
// far-future cases — and the observed (id, timestamp) execution logs must
// match element for element.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/event_queue.h"
#include "common/rng.h"
#include "common/time.h"

namespace moca {
namespace {

/// The original scheduler: min-heap of (time, seq, std::function) with FIFO
/// tie-breaking. Kept here as the behavioral reference.
class LegacyEventQueue {
 public:
  using Callback = std::function<void()>;

  void schedule(TimePs when, Callback cb) {
    MOCA_CHECK(when >= now_);
    heap_.push(Event{when, next_seq_++, std::move(cb)});
  }

  void run_until(TimePs until) {
    while (!heap_.empty() && heap_.top().when <= until) {
      Event ev = heap_.top();
      heap_.pop();
      now_ = ev.when;
      ev.cb();
    }
    now_ = std::max(now_, until);
  }

  [[nodiscard]] TimePs now() const { return now_; }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] TimePs next_time() const {
    MOCA_CHECK(!heap_.empty());
    return heap_.top().when;
  }

 private:
  struct Event {
    TimePs when;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::uint64_t next_seq_ = 0;
  TimePs now_ = 0;
};

struct LogEntry {
  int id;
  TimePs at;
  bool operator==(const LogEntry&) const = default;
};

/// Drives `q` with a deterministic pseudo-random workload (seeded by `seed`)
/// and returns the execution log. Shapes covered: bursts of short-horizon
/// events with heavy timestamp collisions, re-entrant scheduling from
/// callbacks (including at the current timestamp), occasional mid- and
/// far-future events (microseconds to milliseconds ahead, like refresh and
/// epochs) pending under the near traffic, and run_until bounds that land
/// between or exactly on pending timestamps.
template <typename Queue>
std::vector<LogEntry> drive(std::uint64_t seed) {
  Queue q;
  Rng rng(seed);
  std::vector<LogEntry> log;
  int next_id = 0;

  auto record_and_maybe_reschedule = [&](auto&& self, int id,
                                         int chain) -> void {
    log.push_back({id, q.now()});
    if (chain > 0) {
      // Re-entrant scheduling; one in four at the current timestamp.
      const TimePs delta =
          (rng.next_below(4) == 0)
              ? 0
              : static_cast<TimePs>(1 + rng.next_below(2'000'000));
      const int child = next_id++;
      q.schedule(q.now() + delta,
                 [&, child, chain] { self(self, child, chain - 1); });
    }
  };

  TimePs horizon = 0;
  for (int round = 0; round < 40; ++round) {
    const TimePs base = q.now();
    const int burst = 1 + static_cast<int>(rng.next_below(60));
    for (int i = 0; i < burst; ++i) {
      TimePs when;
      switch (rng.next_below(8)) {
        case 0:  // collision-heavy: few distinct timestamps per burst
          when = base + 256 * static_cast<TimePs>(rng.next_below(4));
          break;
        case 1:  // far future: ~2 ms ahead
          when = base + 2'000'000'000 +
                 static_cast<TimePs>(rng.next_below(100'000));
          break;
        case 2:  // mid future: 2-52 us ahead
          when = base + 2'000'000 +
                 static_cast<TimePs>(rng.next_below(50'000'000));
          break;
        default:  // near future: within 70 ns
          when = base + static_cast<TimePs>(rng.next_below(70'000));
          break;
      }
      const int id = next_id++;
      const int chain = static_cast<int>(rng.next_below(3));
      q.schedule(when, [&, id, chain] {
        record_and_maybe_reschedule(record_and_maybe_reschedule, id, chain);
      });
    }
    // Advance by an odd amount so run_until bounds fall between pending
    // events and occasionally land exactly on an event's timestamp.
    horizon += 1 + static_cast<TimePs>(rng.next_below(40'000'000));
    q.run_until(horizon);
  }
  // Drain everything, stepping event-by-event; chains are finite, so this
  // terminates (the guard catches a runaway queue rather than hanging).
  int guard = 1'000'000;
  while (!q.empty() && guard-- > 0) {
    q.run_until(q.next_time());
  }
  EXPECT_TRUE(q.empty());
  return log;
}

TEST(EventQueueEquivalence, MatchesLegacyHeapAcrossRandomWorkloads) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL, 987654321ULL}) {
    const std::vector<LogEntry> legacy = drive<LegacyEventQueue>(seed);
    const std::vector<LogEntry> queue = drive<EventQueue>(seed);
    ASSERT_FALSE(legacy.empty());
    ASSERT_EQ(legacy.size(), queue.size()) << "seed " << seed;
    for (std::size_t i = 0; i < legacy.size(); ++i) {
      ASSERT_EQ(legacy[i].id, queue[i].id)
          << "seed " << seed << " divergence at event " << i;
      ASSERT_EQ(legacy[i].at, queue[i].at)
          << "seed " << seed << " divergence at event " << i;
    }
  }
}

TEST(EventQueueEquivalence, NextTimeAgreesWhileDraining) {
  LegacyEventQueue legacy;
  EventQueue queue;
  Rng rng(99);
  TimePs base = 0;
  for (int i = 0; i < 500; ++i) {
    const TimePs when = base + static_cast<TimePs>(rng.next_below(3'000'000));
    legacy.schedule(when, [] {});
    queue.schedule(when, [] {});
  }
  while (!legacy.empty()) {
    ASSERT_FALSE(queue.empty());
    ASSERT_EQ(legacy.next_time(), queue.next_time());
    const TimePs step = legacy.next_time();
    legacy.run_until(step);
    queue.run_until(step);
    ASSERT_EQ(legacy.now(), queue.now());
  }
  EXPECT_TRUE(queue.empty());
}

/// The scheduler hot path must not allocate: an inline-sized callback
/// (the hierarchy's std::function completion + timestamp payload) has to fit
/// EventCallback's inline buffer, never the counted heap fallback.
TEST(EventQueueEquivalence, HotPathCallbacksStayInline) {
  const std::uint64_t before = EventCallback::heap_fallbacks();
  EventQueue q;
  std::uint64_t sink = 0;
  for (int i = 0; i < 64; ++i) {
    std::function<void(TimePs)> completion = [&sink](TimePs t) {
      sink += static_cast<std::uint64_t>(t);
    };
    const TimePs when = static_cast<TimePs>(1'000 + i * 37);
    q.schedule(when, [cb = std::move(completion), when] { cb(when); });
  }
  q.run_until(10'000);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(sink > 0, true);
  EXPECT_EQ(EventCallback::heap_fallbacks(), before);
}

}  // namespace
}  // namespace moca
