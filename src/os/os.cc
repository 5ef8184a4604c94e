#include "os/os.h"

#include "common/check.h"

namespace moca::os {

Os::Os(PhysicalMemory& phys, const AllocationPolicy& policy)
    : phys_(phys), policy_(policy) {
  stats_.frames_per_module.resize(phys_.module_count(), 0);
}

ProcessId Os::create_process() {
  const auto pid = static_cast<ProcessId>(processes_.size());
  processes_.push_back(
      Process{std::make_unique<AddressSpace>(pid), MemClass::kNonIntensive});
  return pid;
}

AddressSpace& Os::address_space(ProcessId pid) {
  MOCA_CHECK(pid < processes_.size());
  return *processes_[pid].space;
}

const AddressSpace& Os::address_space(ProcessId pid) const {
  MOCA_CHECK(pid < processes_.size());
  return *processes_[pid].space;
}

void Os::set_app_class(ProcessId pid, MemClass c) {
  MOCA_CHECK(pid < processes_.size());
  processes_[pid].app_class = c;
}

MemClass Os::app_class(ProcessId pid) const {
  MOCA_CHECK(pid < processes_.size());
  return processes_[pid].app_class;
}

void Os::destroy_process(ProcessId pid) {
  MOCA_CHECK(pid < processes_.size());
  Process& proc = processes_[pid];
  MOCA_CHECK_MSG(proc.alive, "destroying a dead process");
  PageTable& table = proc.space->page_table();
  for (const auto& [vpn, pfn] : table.entries()) {
    const std::uint32_t module =
        phys_.locate(pfn << kPageShift).module_index;
    MOCA_CHECK(stats_.frames_per_module[module] > 0);
    --stats_.frames_per_module[module];
    phys_.free(table.unmap(vpn));
  }
  MOCA_CHECK(table.mapped_pages() == 0);
  proc.alive = false;
}

bool Os::process_alive(ProcessId pid) const {
  MOCA_CHECK(pid < processes_.size());
  return processes_[pid].alive;
}

Os::TranslateResult Os::translate(ProcessId pid, VirtAddr vaddr) {
  MOCA_CHECK(pid < processes_.size());
  Process& proc = processes_[pid];
  MOCA_CHECK_MSG(proc.alive, "translate for a destroyed process");
  const Vpn vpn = vaddr >> kPageShift;
  PageTable& table = proc.space->page_table();

  if (const auto pfn = table.lookup(vpn)) {
    return TranslateResult{(*pfn << kPageShift) | (vaddr & (kPageBytes - 1)),
                           false};
  }

  ++stats_.page_faults;
  PageContext context;
  context.process = pid;
  context.segment = segment_of(vaddr);
  context.app_class = proc.app_class;
  const Pfn pfn = allocate_frame(context);
  table.map(vpn, pfn);
  return TranslateResult{(pfn << kPageShift) | (vaddr & (kPageBytes - 1)),
                         true};
}

std::optional<Os::RemapResult> Os::try_remap(ProcessId pid, Vpn vpn,
                                             std::uint32_t target_module) {
  MOCA_CHECK(pid < processes_.size());
  PageTable& table = processes_[pid].space->page_table();
  const auto current = table.lookup(vpn);
  MOCA_CHECK_MSG(current.has_value(), "remap of unmapped page");
  const auto new_pfn = phys_.try_allocate(target_module);
  if (!new_pfn) return std::nullopt;
  const Pfn old_pfn = table.unmap(vpn);
  table.map(vpn, *new_pfn);
  const std::uint32_t old_module =
      phys_.locate(old_pfn << kPageShift).module_index;
  phys_.free(old_pfn);
  MOCA_CHECK(stats_.frames_per_module[old_module] > 0);
  --stats_.frames_per_module[old_module];
  ++stats_.frames_per_module[target_module];
  for (std::uint64_t off = 0; off < kPageBytes; off += kLineBytes) {
    phys_.access((old_pfn << kPageShift) + off, false, nullptr);
    phys_.access((*new_pfn << kPageShift) + off, true, nullptr);
  }
  return RemapResult{old_pfn, *new_pfn};
}

Pfn Os::allocate_frame(const PageContext& context) {
  PreferenceChain chain;  // stack-only: the fault path must not allocate
  policy_.preference(context, chain);
  bool first_choice_seen = false;
  for (const dram::MemKind kind : chain) {
    const std::vector<std::uint32_t>& candidates =
        phys_.modules_of_kind(kind);
    if (candidates.empty()) continue;  // kind absent from this machine
    const std::uint64_t start = rr_cursor_++;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const std::uint32_t index =
          candidates[(start + i) % candidates.size()];
      if (auto pfn = phys_.try_allocate(index)) {
        if (first_choice_seen) ++stats_.fallback_allocations;
        ++stats_.frames_per_module[index];
        return *pfn;
      }
    }
    first_choice_seen = true;  // the preferred present kind was full
  }
  // Last resort: any module with space.
  for (std::uint32_t index = 0; index < phys_.module_count(); ++index) {
    if (auto pfn = phys_.try_allocate(index)) {
      ++stats_.fallback_allocations;
      ++stats_.last_resort_allocations;
      ++stats_.frames_per_module[index];
      return *pfn;
    }
  }
  MOCA_CHECK_MSG(false, "simulated machine out of physical memory");
  return 0;
}

void Os::register_stats(StatRegistry& registry,
                        const std::string& prefix) const {
  registry.counter(prefix + "/page_faults", &stats_.page_faults);
  registry.counter(prefix + "/fallback_allocations",
                   &stats_.fallback_allocations);
  registry.counter(prefix + "/last_resort_allocations",
                   &stats_.last_resort_allocations);
}

}  // namespace moca::os
