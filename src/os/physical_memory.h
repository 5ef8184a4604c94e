// Physical frame management over a set of heterogeneous memory modules.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/fault_injection.h"
#include "common/units.h"
#include "dram/module.h"
#include "os/types.h"

namespace moca::os {

/// Free-frame bookkeeping for one module (bump pointer + free list).
class FrameAllocator {
 public:
  explicit FrameAllocator(std::uint64_t total_frames)
      : total_frames_(total_frames) {}

  /// Returns a module-local frame index, or nullopt when full.
  [[nodiscard]] std::optional<std::uint64_t> allocate();
  void free(std::uint64_t frame);

  [[nodiscard]] std::uint64_t total_frames() const { return total_frames_; }
  [[nodiscard]] std::uint64_t used_frames() const {
    return next_unused_ - free_list_.size();
  }
  [[nodiscard]] bool full() const {
    return next_unused_ >= total_frames_ && free_list_.empty();
  }

  /// Raw free-list state, exposed for the invariant auditor only.
  [[nodiscard]] const std::vector<std::uint64_t>& free_list() const {
    return free_list_;
  }
  [[nodiscard]] std::uint64_t next_unused() const { return next_unused_; }

 private:
  std::uint64_t total_frames_;
  std::uint64_t next_unused_ = 0;
  std::vector<std::uint64_t> free_list_;
};

/// The machine's physical memory: a list of modules with contiguous global
/// frame ranges, each with its own allocator. Routes physical addresses to
/// (module, module-local address), and line accesses to the owning module.
class PhysicalMemory {
 public:
  /// Registers a module; returns its index. Modules are referenced but not
  /// owned (the System owns them alongside the event queue).
  std::uint32_t add_module(dram::MemoryModule* module);

  /// Tries to allocate a frame from module `module_index`.
  [[nodiscard]] std::optional<Pfn> try_allocate(std::uint32_t module_index);
  void free(Pfn pfn);

  struct Location {
    std::uint32_t module_index = 0;
    std::uint64_t local_addr = 0;
  };
  /// Decomposes a global physical address.
  [[nodiscard]] Location locate(PhysAddr addr) const;

  /// Issues a line-sized access at global physical address `addr` to the
  /// module that owns it; `on_complete` may be empty (fire-and-forget).
  void access(PhysAddr addr, bool is_write,
              std::function<void(TimePs)> on_complete);

  [[nodiscard]] std::uint32_t module_count() const {
    return static_cast<std::uint32_t>(entries_.size());
  }
  [[nodiscard]] dram::MemoryModule& module(std::uint32_t index) {
    return *entries_[index].module;
  }
  [[nodiscard]] const dram::MemoryModule& module(std::uint32_t index) const {
    return *entries_[index].module;
  }
  [[nodiscard]] const FrameAllocator& allocator(std::uint32_t index) const {
    return entries_[index].allocator;
  }
  /// First global PFN of module `index` (the module owns
  /// [base_pfn, base_pfn + allocator.total_frames())).
  [[nodiscard]] Pfn base_pfn(std::uint32_t index) const {
    return entries_[index].base_pfn;
  }
  [[nodiscard]] std::uint64_t total_frames() const { return next_base_; }

  /// Modules of a given kind, in registration order. Returns a reference
  /// to a per-kind index cache maintained by add_module, so the per-fault
  /// chain walk in Os::allocate_frame stays allocation-free.
  [[nodiscard]] const std::vector<std::uint32_t>& modules_of_kind(
      dram::MemKind kind) const;

  /// Arms fault injection: try_allocate consults the injector before
  /// handing out frames, so degraded/offline modules force the caller's
  /// fallback chain to reroute. Null (the default) disarms.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

 private:
  struct Entry {
    dram::MemoryModule* module = nullptr;
    Pfn base_pfn = 0;
    std::uint64_t frames = 0;
    FrameAllocator allocator{0};
  };
  static constexpr std::size_t kKindCount = 5;  // |dram::MemKind|

  std::vector<Entry> entries_;
  /// Per-kind module-index caches (registration order), rebuilt by
  /// add_module so modules_of_kind can hand out references.
  std::array<std::vector<std::uint32_t>, kKindCount> by_kind_;
  Pfn next_base_ = 0;
  FaultInjector* injector_ = nullptr;
};

}  // namespace moca::os
