#include "tracer.h"

#include <algorithm>
#include <atomic>
#include <iomanip>
#include <sstream>
#include <utility>

#include "common/chrome_trace.h"

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

SpanId Tracer::next_id() {
  std::lock_guard lock(mutex_);
  return next_id_++;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void Tracer::add(SpanRecord record) {
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::uint32_t thread_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tid = next.fetch_add(1);
  return tid;
}

Span::Span(Tracer* tracer, const char* name, const char* category,
           SpanId parent, std::int64_t cell)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  record_.name = name;
  record_.category = category;
  record_.id = tracer_->next_id();
  record_.parent = parent;
  record_.cell = cell;
  record_.tid = thread_tid();
  record_.start_ns = tracer_->now_ns();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end_ns = tracer_->now_ns();
  tracer_->add(std::move(record_));
}

std::map<std::string, SelfTime> self_times(
    const std::vector<SpanRecord>& spans, SpanId root) {
  std::map<SpanId, const SpanRecord*> by_id;
  std::map<SpanId, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    by_id[s.id] = &s;
    children[s.parent].push_back(&s);
  }
  std::map<std::string, SelfTime> out;
  std::vector<SpanId> pending{root};
  while (!pending.empty()) {
    const SpanId id = pending.back();
    pending.pop_back();
    const auto it = by_id.find(id);
    if (it == by_id.end()) continue;
    const SpanRecord& span = *it->second;

    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (const SpanRecord* child : children[id]) {
      pending.push_back(child->id);
      const std::int64_t lo = std::max(child->start_ns, span.start_ns);
      const std::int64_t hi = std::min(child->end_ns, span.end_ns);
      if (lo < hi) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t covered_ns = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered_ns += hi - from;
      reach = std::max(reach, hi);
    }
    const std::int64_t duration = span.end_ns - span.start_ns;
    SelfTime& t = out[span.name];
    ++t.count;
    t.total_s += static_cast<double>(duration) * 1e-9;
    t.self_s += static_cast<double>(duration - covered_ns) * 1e-9;
  }
  return out;
}

std::string chrome_trace(const std::vector<SpanRecord>& spans) {
  std::vector<moca::ChromeTraceEvent> events;
  events.reserve(spans.size());
  for (const SpanRecord& s : spans) {
    moca::ChromeTraceEvent ev;
    ev.name = s.name;
    ev.category = s.category;
    ev.phase = 'X';
    // ChromeTraceEvent counts in picoseconds; host nanoseconds scale up.
    ev.ts = s.start_ns * 1000;
    ev.dur = (s.end_ns - s.start_ns) * 1000;
    ev.tid = s.tid;
    ev.args = {{"span", s.id}, {"parent", s.parent}};
    if (s.cell != kNoCell) {
      ev.args.emplace_back("cell", static_cast<std::uint64_t>(s.cell));
    }
    events.push_back(std::move(ev));
  }
  // Spans are stored as they close (children first). Emit them by start
  // time, longer first on ties, so a parent precedes the children that
  // start with it and the viewer nests them.
  std::sort(events.begin(), events.end(),
            [](const moca::ChromeTraceEvent& a,
               const moca::ChromeTraceEvent& b) {
              return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
            });
  return moca::chrome_trace_json(events);
}

std::string self_time_table(const std::vector<SpanRecord>& spans) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(6);
  for (const SpanRecord& root : spans) {
    if (root.parent != kNoSpan) continue;
    os << "# " << root.name << " (span " << root.id << ", "
       << static_cast<double>(root.end_ns - root.start_ns) * 1e-9
       << " s)\n";
    os << "name\tcount\ttotal_s\tself_s\n";
    for (const auto& [name, t] : self_times(spans, root.id)) {
      os << name << '\t' << t.count << '\t' << t.total_s << '\t' << t.self_s
         << '\n';
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace perfbench
