#include "trace/replay.h"

#include <optional>
#include <vector>

#include "cache/hierarchy.h"
#include "common/check.h"
#include "common/event_queue.h"
#include "dram/module.h"
#include "os/os.h"
#include "os/physical_memory.h"
#include "power/dram_power.h"
#include "trace/trace.h"

namespace moca::trace {
namespace {

/// ReplayStream variant consulting a FaultInjector per record: a truncate
/// clause makes the stream wrap early (as if the file ended at record k), a
/// corrupt clause throws RetryableError when its record is read.
class FaultedReplayStream final : public cpu::OpStream {
 public:
  FaultedReplayStream(TraceReader& reader, FaultInjector& injector)
      : reader_(reader), injector_(injector) {}

  cpu::MicroOp next() override {
    switch (injector_.trace_fault(index_)) {
      case FaultInjector::TraceFault::kCorrupt:
        throw RetryableError("fault injection: trace record " +
                             std::to_string(index_) + " corrupted");
      case FaultInjector::TraceFault::kTruncate:
        reader_.rewind();
        index_ = 0;
        break;
      case FaultInjector::TraceFault::kNone:
        break;
    }
    cpu::MicroOp op;
    if (!reader_.next(op)) {
      reader_.rewind();
      index_ = 0;
      MOCA_CHECK(reader_.next(op));
    }
    ++index_;
    return op;
  }

 private:
  TraceReader& reader_;
  FaultInjector& injector_;
  std::uint64_t index_ = 0;  // position of the next record within the file
};

}  // namespace

ReplayResult replay_trace(const std::string& trace_path,
                          const sim::MemSystemConfig& memsys,
                          std::unique_ptr<os::AllocationPolicy> policy,
                          const ReplayOptions& options) {
  MOCA_CHECK(policy != nullptr);
  TraceReader reader(trace_path);
  MOCA_CHECK_MSG(reader.count() > 0, "empty trace: " << trace_path);
  ReplayStream plain_stream(reader);
  std::optional<FaultedReplayStream> faulted_stream;
  if (options.injector != nullptr) {
    faulted_stream.emplace(reader, *options.injector);
  }
  cpu::OpStream& stream =
      faulted_stream ? static_cast<cpu::OpStream&>(*faulted_stream)
                     : static_cast<cpu::OpStream&>(plain_stream);

  EventQueue events;
  std::vector<std::unique_ptr<dram::MemoryModule>> modules;
  os::PhysicalMemory phys;
  for (const sim::ModuleSpec& spec : memsys.modules) {
    modules.push_back(sim::make_module(spec, events));
    modules.back()->set_fault_injector(options.injector);
    phys.add_module(modules.back().get());
  }
  phys.set_fault_injector(options.injector);
  if (options.injector != nullptr) {
    options.injector->set_clock([&events] { return events.now(); });
    options.injector->maybe_fail_job();
  }
  os::Os os(phys, *policy);
  const os::ProcessId pid = os.create_process();

  cache::MemHierarchy hierarchy(
      cache::default_l1d(), cache::default_l2(), events,
      [&phys](std::uint64_t paddr, bool is_write,
              std::function<void(TimePs)> on_complete) {
        phys.access(paddr, is_write, std::move(on_complete));
      });
  cpu::Core core(0, options.core_params, stream, hierarchy, os, pid,
                 events);
  const std::uint64_t budget =
      options.instructions > 0 ? options.instructions : reader.count();
  core.set_budget(budget);

  const Cycle cycle =
      cpu::run_cores({&core}, events, 0, cpu::cycle_limit(budget));
  events.run_until(cycle_to_ps(cycle) + 50'000'000);  // drain in flight

  ReplayResult result;
  result.instructions = core.stats().committed;
  result.cycles = core.stats().cycles;
  result.ipc = core.stats().ipc();
  result.llc_misses = hierarchy.stats().llc_misses;
  for (std::uint32_t m = 0; m < phys.module_count(); ++m) {
    const dram::ChannelStats stats = phys.module(m).stats();
    result.total_mem_access_time += stats.total_access_time_ps();
    result.memory_energy_j += power::dram_energy_joules(
        power::dram_power_params(phys.module(m).kind()), stats,
        phys.module(m).capacity_bytes(), cycle_to_ps(result.cycles));
    result.frames_per_module.push_back(phys.allocator(m).used_frames());
  }
  return result;
}

}  // namespace moca::trace
