#include "common/chrome_trace.h"

#include <cstdio>

#include "common/check.h"
#include "common/json.h"

namespace moca {
namespace {

/// Picoseconds as an exact decimal count of microseconds, the trace-event
/// unit: 1234567891 -> "1234.567891". A double through the stream keeps
/// only 6 significant digits, so timestamps past 1 s would lose precision.
std::string micros(TimePs ps) {
  MOCA_CHECK_MSG(ps >= 0, "negative trace time " << ps);
  char text[32];
  std::snprintf(text, sizeof text, "%lld.%06lld",
                static_cast<long long>(ps / 1'000'000),
                static_cast<long long>(ps % 1'000'000));
  return text;
}

}  // namespace

void ChromeTrace::instant(
    std::string name, std::string category, TimePs ts,
    std::vector<std::pair<std::string, std::uint64_t>> args) {
  ChromeTraceEvent ev;
  ev.name = std::move(name);
  ev.category = std::move(category);
  ev.phase = 'i';
  ev.ts = ts;
  ev.args = std::move(args);
  events_.push_back(std::move(ev));
}

void ChromeTrace::complete(std::string name, std::string category, TimePs ts,
                           TimePs dur) {
  ChromeTraceEvent ev;
  ev.name = std::move(name);
  ev.category = std::move(category);
  ev.phase = 'X';
  ev.ts = ts;
  ev.dur = dur;
  events_.push_back(std::move(ev));
}

std::string chrome_trace_json(const std::vector<ChromeTraceEvent>& events) {
  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ns");
  w.key("traceEvents").begin_array();
  for (const ChromeTraceEvent& ev : events) {
    w.begin_object();
    w.key("name").value(ev.name);
    w.key("cat").value(ev.category);
    w.key("ph").value(std::string(1, ev.phase));
    w.key("ts").number(micros(ev.ts));
    if (ev.phase == 'X') w.key("dur").number(micros(ev.dur));
    if (ev.phase == 'i') w.key("s").value("p");  // process-scoped instant
    w.key("pid").value(std::uint64_t{0});
    w.key("tid").value(static_cast<std::uint64_t>(ev.tid));
    if (!ev.args.empty()) {
      w.key("args").begin_object();
      for (const auto& [k, v] : ev.args) w.key(k).value(v);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace moca
