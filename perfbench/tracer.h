// Host-time spans recorded by the benchmark around each of its calls into a
// simulator layer (profile_app, classify_for_runtime, the System
// constructor, System::run, the report writers, SweepRunner::run /
// SweepSupervisor::run, AppStream::next). Spans stay in memory and are
// written once, at exit, as a Chrome trace plus a per-name self-time table.
// Nothing here reaches inside the simulator: a span times one public call.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = 0;
inline constexpr std::int64_t kNoCell = -1;

struct SpanRecord {
  std::string name;
  std::string category;  // the layer the span's call enters
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::int64_t cell = kNoCell;  // sweep cell (or profiled app) index
  std::uint32_t tid = 0;
  std::int64_t start_ns = 0;  // host steady clock, from the tracer's origin
  std::int64_t end_ns = 0;
};

/// Self time of one span name: its durations minus the parts of each
/// interval that its children cover (children may overlap one another
/// when they run on several worker threads; their union is subtracted).
struct SelfTime {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Thread-safe span store. Worker threads of a sweep pool may close spans
/// concurrently.
class Tracer {
 public:
  Tracer();

  [[nodiscard]] SpanId next_id();
  [[nodiscard]] std::int64_t now_ns() const;
  void add(SpanRecord record);

  /// Every span closed so far (copy; taken after the workers joined).
  [[nodiscard]] std::vector<SpanRecord> spans() const;

 private:
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
  SpanId next_id_ = 1;             // guarded by mutex_
};

/// Small dense id of the calling thread (1 = first thread that asked).
[[nodiscard]] std::uint32_t thread_tid();

/// RAII span. With a null tracer it does nothing at all, which is how the
/// untraced passes run the very same code.
class Span {
 public:
  Span(Tracer* tracer, const char* name, const char* category,
       SpanId parent, std::int64_t cell = kNoCell);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] SpanId id() const { return record_.id; }

 private:
  Tracer* tracer_;
  SpanRecord record_;
};

/// Self time of every span whose id is `root` or descends from it, keyed
/// by span name.
[[nodiscard]] std::map<std::string, SelfTime> self_times(
    const std::vector<SpanRecord>& spans, SpanId root);

/// The whole trace in the Chrome trace-event format (opens in Perfetto).
[[nodiscard]] std::string chrome_trace(const std::vector<SpanRecord>& spans);

/// Plain-text self-time table of every root span and its subtree.
[[nodiscard]] std::string self_time_table(
    const std::vector<SpanRecord>& spans);

}  // namespace perfbench
