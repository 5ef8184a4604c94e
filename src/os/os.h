// The simulated OS: processes, demand paging, policy-driven frame placement.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stat_registry.h"
#include "os/address_space.h"
#include "os/physical_memory.h"
#include "os/policy.h"
#include "os/types.h"

namespace moca::os {

struct OsStats {
  std::uint64_t page_faults = 0;
  /// Pages that could not be placed in the first kind of their preference
  /// chain (capacity fallback, Sec. III-C).
  std::uint64_t fallback_allocations = 0;
  /// Pages placed only by the any-module-with-space last resort.
  std::uint64_t last_resort_allocations = 0;
  /// Frames handed out per module index.
  std::vector<std::uint64_t> frames_per_module;
};

/// Owns the per-process address spaces and performs first-touch page
/// allocation through the installed AllocationPolicy (paper Sec. IV-D).
class Os {
 public:
  Os(PhysicalMemory& phys, const AllocationPolicy& policy);

  /// Creates a process; returns its id (dense, starting at 0).
  ProcessId create_process();

  /// Tears a process down: unmaps every page and returns its frames to
  /// their modules. The pid stays allocated (ids are dense and never
  /// reused); further translate() calls for it throw.
  void destroy_process(ProcessId pid);

  [[nodiscard]] bool process_alive(ProcessId pid) const;

  [[nodiscard]] AddressSpace& address_space(ProcessId pid);
  [[nodiscard]] const AddressSpace& address_space(ProcessId pid) const;

  /// Sets the application-level class the Heter-App baseline sees.
  void set_app_class(ProcessId pid, MemClass c);
  [[nodiscard]] MemClass app_class(ProcessId pid) const;

  struct TranslateResult {
    PhysAddr paddr = 0;
    bool page_fault = false;  // first touch: frame allocated on this call
  };

  /// Translates a virtual address, demand-allocating the page on first
  /// touch. Never fails: if every module is full this throws CheckError
  /// (the simulated machine is genuinely out of memory).
  TranslateResult translate(ProcessId pid, VirtAddr vaddr);

  struct RemapResult {
    Pfn old_pfn = 0;
    Pfn new_pfn = 0;
  };
  /// Moves an existing mapping onto a frame of `target_module` (page
  /// migration) and issues the page copy as DRAM traffic: for each line, a
  /// read of the old frame then a write of the new one, fire-and-forget.
  /// Returns nullopt when the target module is full. Stale TLB entries are
  /// the caller's to flush, so a pass that moves many pages pays one
  /// shootdown.
  std::optional<RemapResult> try_remap(ProcessId pid, Vpn vpn,
                                       std::uint32_t target_module);

  /// Registers paging/placement counters under `prefix` (e.g. "os"):
  /// page faults and the fallback/last-resort allocation spill counters of
  /// the preference chains (Sec. III-C).
  void register_stats(StatRegistry& registry,
                      const std::string& prefix) const;

  [[nodiscard]] const OsStats& stats() const { return stats_; }
  [[nodiscard]] PhysicalMemory& physical_memory() { return phys_; }
  [[nodiscard]] const PhysicalMemory& physical_memory() const {
    return phys_;
  }
  [[nodiscard]] std::size_t process_count() const {
    return processes_.size();
  }

  /// Visits every alive process as f(pid, address_space). Used by the
  /// invariant auditor to reconcile page tables against frame accounting.
  template <class F>
  void for_each_alive_process(F&& f) const {
    for (ProcessId pid = 0; pid < processes_.size(); ++pid) {
      if (processes_[pid].alive) f(pid, *processes_[pid].space);
    }
  }

 private:
  struct Process {
    std::unique_ptr<AddressSpace> space;
    MemClass app_class = MemClass::kNonIntensive;
    bool alive = true;
  };

  [[nodiscard]] Pfn allocate_frame(const PageContext& context);

  PhysicalMemory& phys_;
  const AllocationPolicy& policy_;
  std::vector<Process> processes_;
  OsStats stats_;
  /// Round-robin cursor interleaving allocations across same-kind modules
  /// (two LPDDR2 modules in the paper's config1/2), spreading traffic over
  /// both channels instead of filling one module first.
  std::uint64_t rr_cursor_ = 0;
};

}  // namespace moca::os
