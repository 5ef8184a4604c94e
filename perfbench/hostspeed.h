// Host speed: how the benchmark keeps other tenants' load out of its times.
//
// On a host shared with other tenants the simulator's host time swings by
// a quarter and more within minutes while its CPU time tracks its wall
// time: neighbours take execution units (a busy sibling hyperthread) or
// load the shared L3 and memory, and the kind of load changes from minute
// to minute. A fixed reference kernel that does both kinds of work (see
// hostspeed.cc) slows down with the simulator, so the benchmark runs it
// between repetitions and between the cells of a one-worker sweep, and
// scales every host time it reports by
//
//   factor = kReferenceKernelS / (mean kernel time over the run)
//
// On a 4-vCPU Xeon this cut the quartile spread of wall_s over ten seeds
// from 0.15, 0.24 and 0.12 of the median (raw, sweep-1core, sweep-4core,
// supervised-short) to 0.017, 0.049 and 0.046.
//
// The mean, not the median: the host flips between faster and slower
// states every second or so, and the mean follows the share of time spent
// in each where a median jumps from one state to the other. The slowest
// and fastest tenth of the samples are left out (trimmed_mean), so one
// preempted sample does not move it. For the same reason the end-to-end
// times are trimmed means over repetitions.
//
// A scaled time reads as host seconds on a host where the kernel takes
// kReferenceKernelS. The kernel's own time is never counted in a reported
// time, and the kernel does the same work on every call.
#pragma once

#include <cstdint>
#include <memory>
#include <streambuf>
#include <vector>

#include "tracer.h"

namespace perfbench {

/// About the kernel's time on a 4-vCPU Xeon (Sapphire Rapids, 2 MiB L2
/// per core) under its tenants' usual load. It only sets the scale of the
/// reported times; changing it changes every baseline.
inline constexpr double kReferenceKernelS = 0.005;

/// Runs the reference kernel and keeps its times. Called from one thread
/// at a time.
class HostSpeed {
 public:
  /// `threads` copies of the kernel run at once, one per sweep worker, so
  /// that a sample sees the load on as many vCPUs as the sweep uses.
  explicit HostSpeed(unsigned threads);
  ~HostSpeed();

  /// Runs the kernel once on each thread and records every run's time.
  void sample();

  /// Reference seconds per measured second over every sample so far (1
  /// before the first).
  [[nodiscard]] double factor() const;

  /// Kernel runs recorded so far.
  [[nodiscard]] std::size_t samples() const { return kernel_s_.size(); }

  /// Summed time of the kernel runs numbered `first` and later.
  [[nodiscard]] double seconds_since(std::size_t first) const;

  /// Resident size of the kernel's tables, which stay mapped for the whole
  /// run; peak_rss_mib leaves them out.
  [[nodiscard]] double tables_mib() const;

 private:
  struct Tables;
  std::vector<std::unique_ptr<Tables>> tables_;  // one per thread
  std::vector<double> kernel_s_;
  std::uint64_t checksum_ = 0;  // keeps the kernel's work observable
};

/// Mean of `values` without the lowest and highest tenth (0 when empty).
[[nodiscard]] double trimmed_mean(std::vector<double> values);

/// Log sink for SweepRunner::set_log. A one-worker runner flushes one line
/// per finished cell on the calling thread, so each flush samples host
/// speed between two cells (under a span when traced); the text is dropped.
class SampleOnFlush final : public std::streambuf {
 public:
  SampleOnFlush(HostSpeed& speed, Tracer* tracer, SpanId parent)
      : speed_(speed), tracer_(tracer), parent_(parent) {}

 protected:
  int overflow(int c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
  int sync() override;

 private:
  HostSpeed& speed_;
  Tracer* tracer_;
  SpanId parent_;
};

}  // namespace perfbench
