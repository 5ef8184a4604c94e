// Phase-level event collector in the Chrome trace ("trace event") format.
//
// Collects coarse, phase-grained markers (warmup end, epoch boundaries,
// migration bursts, fallback-chain spills) during a run and serializes them
// as a JSON document that chrome://tracing and ui.perfetto.dev open
// directly. This is deliberately NOT a per-access tracer: events fire at
// most a few times per epoch, so collection never touches the simulation
// hot path.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"

namespace moca {

/// One Chrome trace event. `phase` follows the trace-event spec: 'i' for
/// instant events, 'X' for complete (duration) events.
struct ChromeTraceEvent {
  std::string name;
  std::string category;
  char phase = 'i';
  TimePs ts = 0;   // simulated timestamp
  TimePs dur = 0;  // complete events only
  std::uint32_t tid = 0;
  /// Integer args shown in the trace viewer's detail pane.
  std::vector<std::pair<std::string, std::uint64_t>> args;
};

/// Accumulates events in simulation order.
class ChromeTrace {
 public:
  void instant(std::string name, std::string category, TimePs ts,
               std::vector<std::pair<std::string, std::uint64_t>> args = {});
  void complete(std::string name, std::string category, TimePs ts,
                TimePs dur);

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] const std::vector<ChromeTraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::vector<ChromeTraceEvent> take() {
    return std::move(events_);
  }

 private:
  std::vector<ChromeTraceEvent> events_;
};

/// Serializes events as a Chrome trace JSON object ("traceEvents" array,
/// microsecond timestamps with six exact decimals). Deterministic: depends
/// only on the events.
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<ChromeTraceEvent>& events);

}  // namespace moca
