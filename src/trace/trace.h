// Memory-trace capture and replay (gem5-style infrastructure).
//
// A trace is the exact micro-op stream a core would execute: portable
// fixed-width little-endian records behind a small header. Traces decouple
// workload generation from simulation — record once, replay under any
// memory system/policy — and make runs shareable and diffable.
//
// Replaying under MOCA works without re-classification: the recorded
// virtual addresses already encode the typed heap partition each object
// was placed in when the trace was captured.
#pragma once

#include <cstdint>
#include <fstream>
#include <istream>
#include <string>
#include <vector>

#include "cpu/microop.h"

namespace moca {
class FaultInjector;
}  // namespace moca

namespace moca::trace {

inline constexpr char kMagic[8] = {'M', 'O', 'C', 'A', 'T', 'R', 'C', '1'};
/// Serialized record size: kind(1) + latency(1) + dep1(4) + vaddr(8) +
/// object(8).
inline constexpr std::size_t kRecordBytes = 22;

/// Streams micro-ops into a trace file. The op count is patched into the
/// header on close (or destruction).
class TraceWriter {
 public:
  explicit TraceWriter(const std::string& path);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void append(const cpu::MicroOp& op);
  /// Finalizes the header; further appends are invalid.
  void close();

  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  std::ofstream out_;
  std::uint64_t count_ = 0;
  bool closed_ = false;
};

/// Reads a trace sequentially. Malformed input (bad magic, truncated
/// records, out-of-range op kinds) throws moca::CheckError; arbitrary bytes
/// never produce an out-of-domain MicroOp.
class TraceReader {
 public:
  explicit TraceReader(const std::string& path);
  /// Reads from an arbitrary binary stream (in-memory traces, fuzzing).
  /// The stream must outlive the reader.
  explicit TraceReader(std::istream& in);

  /// Reads the next record; returns false at end of trace.
  bool next(cpu::MicroOp& op);
  /// Rewinds to the first record.
  void rewind();

  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  void read_header(const std::string& source);

  std::ifstream file_;  // backing storage for the path constructor
  std::istream* in_ = nullptr;
  std::uint64_t count_ = 0;
  std::uint64_t read_ = 0;
};

/// OpStream replaying a trace, wrapping around at the end (cores consume
/// unbounded streams; the wrap seam only breaks a handful of dependency
/// distances). An armed `injector` is consulted before every record: a
/// trace:truncate clause wraps early, as if the file ended at its record,
/// and a trace:corrupt clause throws RetryableError when its record is read.
class ReplayStream final : public cpu::OpStream {
 public:
  explicit ReplayStream(TraceReader& reader,
                        const FaultInjector* injector = nullptr)
      : reader_(reader), injector_(injector) {}
  cpu::MicroOp next() override;

  [[nodiscard]] std::uint64_t wraps() const { return wraps_; }

 private:
  void wrap();

  TraceReader& reader_;
  const FaultInjector* injector_;
  std::uint64_t index_ = 0;  // position of the next record within the file
  std::uint64_t wraps_ = 0;
};

}  // namespace moca::trace
