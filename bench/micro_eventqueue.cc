// Scheduler microbench: throughput and allocation behavior of EventQueue
// under the traffic shapes the simulator generates — short-horizon fan-out
// (cache/DRAM completions), self-rescheduling periodic events (refresh,
// controller wake-ups) and far-future events (migration epochs) mixed into
// the near traffic. The fan-out batches keep 256 events pending, deeper than
// the simulator's queue ever gets (docs/perf.md).
//
// The binary also counts global operator new calls so the allocation-free
// claim of the hot path is measured, not assumed: `allocs_per_event` is
// reported as a benchmark counter and tools/bench_hotpath.sh records it in
// BENCH_hotpath.json.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>

#include "common/event_queue.h"
#include "common/rng.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// The replaced operators pair our malloc-backed new with free; GCC cannot
// see that pairing and warns as if the default new were in play.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace {

using namespace moca;

constexpr int kBatch = 256;

/// One batch of the dominant traffic shape: schedule `kBatch` completions at
/// short pseudo-random horizons (1 ns .. 60 ns, the L1-latency-to-DRAM
/// window) whose callbacks carry the hierarchy's real payload — a
/// std::function completion plus a timestamp — then drain.
template <typename Queue>
std::uint64_t fan_out_drain_batch(Queue& q, Rng& rng, std::uint64_t* sink) {
  const TimePs base = q.now();
  for (int i = 0; i < kBatch; ++i) {
    std::function<void(TimePs)> completion = [sink](TimePs t) {
      *sink += static_cast<std::uint64_t>(t);
    };
    const TimePs when =
        base + 1'000 + static_cast<TimePs>(rng.next_below(60'000));
    q.schedule(when,
               [cb = std::move(completion), when] { cb(when); });
  }
  q.run_until(base + 100'000);
  return kBatch;
}

void BM_FanOutDrain(benchmark::State& state) {
  EventQueue q;
  Rng rng(42);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    fan_out_drain_batch(q, rng, &sink);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_FanOutDrain);

/// Steady-state allocation count of the fan-out shape. Warm-up batches let
/// internal storage reach capacity first; the counter then reports heap
/// allocations per scheduled event (the acceptance target is 0).
void BM_FanOutAllocs(benchmark::State& state) {
  EventQueue q;
  Rng rng(42);
  std::uint64_t sink = 0;
  // The first batch grows the heap, the slab and the free list to a full
  // batch of pending events; every later batch reuses that storage, so the
  // counter below reads strict steady state.
  for (int warm = 0; warm < 256; ++warm) {
    fan_out_drain_batch(q, rng, &sink);
  }
  std::uint64_t events = 0;
  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    events += fan_out_drain_batch(q, rng, &sink);
  }
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["allocs_per_event"] =
      events == 0 ? 0.0
                  : static_cast<double>(allocs) / static_cast<double>(events);
}
BENCHMARK(BM_FanOutAllocs);

/// Periodic self-rescheduling events (refresh trains / controller wake-ups)
/// with a cycle-stepped run_until, the System::run drive pattern.
void BM_SelfRescheduling(benchmark::State& state) {
  EventQueue q;
  std::uint64_t fired = 0;
  struct Periodic {
    EventQueue* q;
    TimePs period;
    std::uint64_t* fired;
    void operator()() const {
      ++*fired;
      q->schedule(q->now() + period, *this);
    }
  };
  for (TimePs period : {3'900, 7'800, 12'700}) {
    q.schedule(period, Periodic{&q, period, &fired});
  }
  TimePs now = 0;
  for (auto _ : state) {
    now += 1'000;  // one CPU cycle per iteration
    q.run_until(now);
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_SelfRescheduling);

/// Mix of near events and far-future ones (multi-microsecond refresh
/// horizons, millisecond migration epochs) pending in the same heap.
void BM_FarFutureMix(benchmark::State& state) {
  EventQueue q;
  Rng rng(7);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    const TimePs base = q.now();
    for (int i = 0; i < kBatch; ++i) {
      TimePs when;
      switch (i & 7) {
        case 6:
          when = base + 7'800'000 + static_cast<TimePs>(
                                        rng.next_below(1'000'000));
          break;
        case 7:
          when = base + 5'000'000'000 + static_cast<TimePs>(
                                            rng.next_below(1'000'000));
          break;
        default:
          when = base + 1'000 + static_cast<TimePs>(rng.next_below(60'000));
          break;
      }
      q.schedule(when, [&sink, when] { sink += static_cast<std::uint64_t>(when); });
    }
    q.run_until(base + 6'000'000'000);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_FarFutureMix);

}  // namespace

BENCHMARK_MAIN();
