#include "moca/profiler.h"

#include "common/check.h"
#include "os/types.h"

namespace moca::core {

Profiler::PerObject& Profiler::object_slot(std::uint64_t id) {
  if (per_object_.size() <= id) per_object_.resize(id + 1);
  return per_object_[id];
}

Profiler::PerProcess& Profiler::process_slot(os::ProcessId pid) {
  if (per_process_.size() <= pid) per_process_.resize(pid + 1);
  return per_process_[pid];
}

void Profiler::on_llc_miss(const cache::AccessContext& ctx) {
  PerProcess& proc = process_slot(ctx.process);
  ++proc.llc_misses;
  if (ctx.is_load) ++proc.load_llc_misses;

  if (ctx.object != cache::kNoObject) {
    PerObject& obj = object_slot(ctx.object);
    ++obj.llc_misses;
    if (ctx.is_load) ++obj.load_llc_misses;
    return;
  }
  switch (static_cast<os::Segment>(ctx.segment)) {
    case os::Segment::kStack:
      ++proc.stack_misses;
      break;
    case os::Segment::kCode:
      ++proc.code_misses;
      break;
    default:
      ++proc.other_misses;
      break;
  }
}

void Profiler::on_head_stall(os::ProcessId pid, std::uint64_t object_id,
                             std::uint64_t cycles) {
  process_slot(pid).stall_cycles += cycles;
  if (object_id != cache::kNoObject) {
    object_slot(object_id).stall_cycles += cycles;
  }
}

AppProfile Profiler::finalize(const std::string& app_name, os::ProcessId pid,
                              std::uint64_t instructions) const {
  AppProfile profile;
  profile.app_name = app_name;
  profile.instructions = instructions;
  if (pid < per_process_.size()) {
    const PerProcess& proc = per_process_[pid];
    profile.llc_misses = proc.llc_misses;
    profile.load_llc_misses = proc.load_llc_misses;
    profile.rob_stall_cycles = proc.stall_cycles;
    profile.stack_llc_misses = proc.stack_misses;
    profile.code_llc_misses = proc.code_misses;
    profile.other_llc_misses = proc.other_misses;
  }

  for (const ObjectInstance& inst : registry_.all()) {
    if (inst.pid != pid) continue;
    const ObjectName name = registry_.name_of(inst.id);
    ObjectProfile& obj = profile.objects[name];
    obj.name = name;
    if (obj.label.empty()) obj.label = registry_.label_of(inst.id);
    obj.bytes += inst.bytes;
    ++obj.allocations;
    if (inst.id < per_object_.size()) {
      const PerObject& counters = per_object_[inst.id];
      obj.llc_misses += counters.llc_misses;
      obj.load_llc_misses += counters.load_llc_misses;
      obj.rob_stall_cycles += counters.stall_cycles;
    }
  }
  return profile;
}

}  // namespace moca::core
