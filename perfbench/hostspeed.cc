#include "hostspeed.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>
#include <utility>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// The kernel has three parts. Independent multiply streams keep the
// execution units busy, which a busy sibling hyperthread on the host takes
// from the simulator; then, in miniature, what the simulator's inner loop
// does: tag lookups in a set-associative cache with LRU replacement over
// 4 MiB of tags and stamps (twice a core's L2), and steps of a binary-heap
// event queue. Timed against short simulator runs on a 4-vCPU Xeon in two
// windows of a few minutes, the neighbours' load was of a different kind in
// each: the simulator's time followed the multiply streams closely in one
// (correlation 0.93) and hardly at all in the other (0.24), where the
// cache and heap work followed it better. A mix followed it in both:
// dividing by it cut the standard deviation of the simulator's log time
// over 2 s windows from 0.19 to 0.05 (streams and cache-and-heap work
// taking equal time, first window) and from 0.10 to 0.05 (this kernel, the
// streams taking about three fifths of its time, second window).
constexpr int kStreamRounds = 500'000;
constexpr std::size_t kSets = 16384;
constexpr std::size_t kWays = 16;
constexpr std::uint64_t kLookups = 10'000;
constexpr std::size_t kEvents = 8'000;
constexpr int kEventSteps = 5'000;

std::uint64_t next_random(std::uint64_t& x) {
  x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x;
}

}  // namespace

struct HostSpeed::Tables {
  std::vector<std::uint64_t> tags = std::vector<std::uint64_t>(kSets * kWays);
  std::vector<std::uint64_t> stamps =
      std::vector<std::uint64_t>(kSets * kWays);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> events;

  Tables() { events.reserve(kEvents); }

  /// Starts from the same state and does exactly the same work every call.
  std::uint64_t run() {
    std::uint64_t s0 = 1, s1 = 2, s2 = 3, s3 = 4, s4 = 5, s5 = 6, s6 = 7,
                  s7 = 8;
    for (int i = 0; i < kStreamRounds; ++i) {
      for (std::uint64_t* x : {&s0, &s1, &s2, &s3, &s4, &s5, &s6, &s7}) {
        *x = (*x ^ (*x >> 29)) * 0xbf58476d1ce4e5b9ULL;
      }
      // Keeps the streams in scalar registers, as the simulator's own
      // integer work is, instead of letting the compiler vectorize them.
      asm volatile(""
                   : "+r"(s0), "+r"(s1), "+r"(s2), "+r"(s3), "+r"(s4),
                     "+r"(s5), "+r"(s6), "+r"(s7));
    }
    std::fill(tags.begin(), tags.end(), 0);
    std::fill(stamps.begin(), stamps.end(), 0);
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    std::uint64_t hits = 0;
    for (std::uint64_t i = 1; i <= kLookups; ++i) {
      next_random(x);
      std::uint64_t line = (x >> 40) & 0xfffff;
      if (((x >> 20) & 1) != 0) line &= 0x3ffff;  // a hotter quarter
      std::uint64_t* tag = &tags[line % kSets * kWays];
      std::uint64_t* stamp = &stamps[line % kSets * kWays];
      std::size_t victim = 0;
      bool hit = false;
      for (std::size_t w = 0; w < kWays && !hit; ++w) {
        hit = tag[w] == line + 1;
        if (hit) stamp[w] = i;
        if (stamp[w] < stamp[victim]) victim = w;
      }
      if (hit) {
        ++hits;
      } else {
        tag[victim] = line + 1;
        stamp[victim] = i;
      }
    }
    const auto later = std::greater<>();
    events.clear();
    std::uint64_t now = 0;
    for (std::size_t i = 0; i < kEvents; ++i) {
      events.emplace_back(next_random(x) >> 50, x);
    }
    std::make_heap(events.begin(), events.end(), later);
    for (int i = 0; i < kEventSteps; ++i) {
      std::pop_heap(events.begin(), events.end(), later);
      now = events.back().first;
      hits ^= events.back().second;
      events.back() = {now + (next_random(x) >> 50), x};
      std::push_heap(events.begin(), events.end(), later);
    }
    return hits + now + (s0 ^ s1 ^ s2 ^ s3 ^ s4 ^ s5 ^ s6 ^ s7);
  }
};

HostSpeed::HostSpeed(unsigned threads) {
  for (unsigned i = 0; i < std::max(threads, 1U); ++i) {
    tables_.push_back(std::make_unique<Tables>());
  }
}

HostSpeed::~HostSpeed() = default;

void HostSpeed::sample() {
  std::vector<double> seconds(tables_.size());
  std::vector<std::uint64_t> sums(tables_.size());
  const auto run = [&](std::size_t i) {
    const Clock::time_point start = Clock::now();
    sums[i] = tables_[i]->run();
    seconds[i] = std::chrono::duration<double>(Clock::now() - start).count();
  };
  std::vector<std::thread> helpers;
  for (std::size_t i = 1; i < tables_.size(); ++i) helpers.emplace_back(run, i);
  run(0);
  for (std::thread& helper : helpers) helper.join();
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    checksum_ += sums[i];
    kernel_s_.push_back(seconds[i]);
  }
}

double HostSpeed::factor() const {
  return kernel_s_.empty() ? 1.0
                           : kReferenceKernelS / trimmed_mean(kernel_s_);
}

double HostSpeed::seconds_since(std::size_t first) const {
  double sum = 0.0;
  for (std::size_t i = first; i < kernel_s_.size(); ++i) sum += kernel_s_[i];
  return sum;
}

double trimmed_mean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t trim = values.size() / 10;
  double sum = 0.0;
  for (std::size_t i = trim; i + trim < values.size(); ++i) sum += values[i];
  const std::size_t kept = values.size() - 2 * trim;
  return kept == 0 ? 0.0 : sum / static_cast<double>(kept);
}

int SampleOnFlush::sync() {
  Span span(tracer_, "host_speed", "bench", parent_);
  speed_.sample();
  return 0;
}

double HostSpeed::tables_mib() const {
  const std::size_t bytes =
      2 * kSets * kWays * sizeof(std::uint64_t) +
      kEvents * sizeof(std::pair<std::uint64_t, std::uint64_t>);
  return static_cast<double>(bytes * tables_.size()) / (1024.0 * 1024.0);
}

}  // namespace perfbench
