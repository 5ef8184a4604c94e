// Outside-in counters: everything the benchmark measures about a layer
// without touching the simulator's sources.
//
//   heap allocations   a counting global operator new (probes.cc)
//   peak memory        VmHWM of this process, getrusage(RUSAGE_CHILDREN)
//   OS policy calls    an AllocationPolicy decorator handed to System
//   workload generator AppStream driven on its own, outside any System
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "os/policy.h"
#include "sim/system.h"

namespace perfbench {

/// Global operator new calls made by the calling thread so far.
[[nodiscard]] std::uint64_t thread_heap_allocs();

/// Peak resident set of this process or of any waited-for child process,
/// whichever is larger, in MiB.
[[nodiscard]] double peak_rss_mib();

struct PolicyCounters {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
};

/// Forwards to the real policy and counts and times every preference()
/// call (one per first-touch page fault). Single-threaded: each System
/// gets its own counters.
class CountingPolicy final : public moca::os::AllocationPolicy {
 public:
  CountingPolicy(std::unique_ptr<moca::os::AllocationPolicy> inner,
                 PolicyCounters& counters)
      : inner_(std::move(inner)), counters_(counters) {}

  void preference(const moca::os::PageContext& context,
                  moca::os::PreferenceChain& out) const override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<moca::os::AllocationPolicy> inner_;
  PolicyCounters& counters_;
};

struct StreamDrive {
  std::uint64_t calls = 0;
  double seconds = 0.0;
  std::uint64_t checksum = 0;  // keeps the generated ops observable
};

/// Builds each app's AppStream on a private address space and pulls `ops`
/// micro-ops from it, timing only the next() calls.
[[nodiscard]] StreamDrive drive_streams(
    const std::vector<moca::sim::AppInstance>& apps, std::uint64_t ops);

}  // namespace perfbench
