#include "os/physical_memory.h"

#include "common/check.h"

namespace moca::os {

std::optional<std::uint64_t> FrameAllocator::allocate() {
  if (!free_list_.empty()) {
    const std::uint64_t frame = free_list_.back();
    free_list_.pop_back();
    return frame;
  }
  if (next_unused_ < total_frames_) return next_unused_++;
  return std::nullopt;
}

void FrameAllocator::free(std::uint64_t frame) {
  MOCA_CHECK_MSG(frame < next_unused_, "freeing never-allocated frame");
  free_list_.push_back(frame);
}

std::uint32_t PhysicalMemory::add_module(dram::MemoryModule* module) {
  MOCA_CHECK(module != nullptr);
  Entry e;
  e.module = module;
  e.base_pfn = next_base_;
  e.frames = module->capacity_bytes() / kPageBytes;
  e.allocator = FrameAllocator(e.frames);
  next_base_ += e.frames;
  entries_.push_back(std::move(e));
  const auto index = static_cast<std::uint32_t>(entries_.size() - 1);
  const auto kind = static_cast<std::size_t>(module->kind());
  MOCA_CHECK(kind < kKindCount);
  by_kind_[kind].push_back(index);
  return index;
}

std::optional<Pfn> PhysicalMemory::try_allocate(std::uint32_t module_index) {
  MOCA_CHECK(module_index < entries_.size());
  Entry& e = entries_[module_index];
  if (injector_ != nullptr &&
      !injector_->allow_frame_allocation(e.module->name(),
                                         e.allocator.used_frames())) {
    return std::nullopt;
  }
  const std::optional<std::uint64_t> local = e.allocator.allocate();
  if (!local) return std::nullopt;
  return e.base_pfn + *local;
}

void PhysicalMemory::free(Pfn pfn) {
  for (Entry& e : entries_) {
    if (pfn >= e.base_pfn && pfn < e.base_pfn + e.frames) {
      e.allocator.free(pfn - e.base_pfn);
      return;
    }
  }
  MOCA_CHECK_MSG(false, "freeing pfn outside all modules");
}

PhysicalMemory::Location PhysicalMemory::locate(PhysAddr addr) const {
  const Pfn pfn = addr >> kPageShift;
  for (std::uint32_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (pfn >= e.base_pfn && pfn < e.base_pfn + e.frames) {
      const std::uint64_t local_frame = pfn - e.base_pfn;
      return Location{i, (local_frame << kPageShift) |
                             (addr & (kPageBytes - 1))};
    }
  }
  MOCA_CHECK_MSG(false, "physical address outside all modules: " << addr);
  return {};
}

void PhysicalMemory::access(PhysAddr addr, bool is_write,
                            std::function<void(TimePs)> on_complete) {
  const Location loc = locate(addr);
  entries_[loc.module_index].module->access(loc.local_addr, is_write,
                                            std::move(on_complete));
}

const std::vector<std::uint32_t>& PhysicalMemory::modules_of_kind(
    dram::MemKind kind) const {
  const auto index = static_cast<std::size_t>(kind);
  MOCA_CHECK(index < kKindCount);
  return by_kind_[index];
}

}  // namespace moca::os
