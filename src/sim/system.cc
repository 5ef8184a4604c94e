#include "sim/system.h"

#include <algorithm>

#include "common/check.h"
#include "common/stats.h"

namespace moca::sim {

double RunResult::memory_edp() const {
  return memory_energy_j * ps_to_seconds(total_mem_access_time);
}

double RunResult::system_edp() const {
  return system_energy_j() * ps_to_seconds(exec_time);
}

double RunResult::system_throughput() const {
  return safe_div(static_cast<double>(total_instructions),
                  ps_to_seconds(exec_time));
}

template <class Tick>
void System::every(TimePs period, Tick tick) {
  struct Repeat {
    System* system;
    TimePs period;
    Tick tick;
    void operator()() const {
      // Ticks read core counters: charge the sleeping cores first.
      system->settle_cores();
      if (tick()) {
        system->events_.schedule(system->events_.now() + period, *this);
      }
    }
  };
  static_assert(sizeof(Repeat) <= EventCallback::kInlineBytes,
                "a tick must not cost a heap allocation");
  events_.schedule(events_.now() + period,
                   Repeat{this, period, std::move(tick)});
}

System::System(const MemSystemConfig& memsys,
               std::unique_ptr<os::AllocationPolicy> policy,
               std::vector<AppInstance> apps, SystemOptions options)
    : memsys_(memsys),
      options_(options),
      apps_(std::move(apps)),
      policy_(std::move(policy)),
      profiler_(registry_) {
  MOCA_CHECK(policy_ != nullptr);
  MOCA_CHECK(!apps_.empty());
  MOCA_CHECK(!memsys_.modules.empty());

  // Slot buffers rotate through the wheel via swap, so without a floor a
  // cold tiny buffer keeps landing where a multi-event batch arrives and
  // the run pays hundreds of thousands of small grow-reallocs (~2.5 MiB
  // once here buys their elimination; capacity only, no behavior change).
  events_.reserve_slot_capacity(/*level0_events=*/8, /*level1_events=*/8);

  if (!options_.faults.empty()) {
    injector_ = std::make_unique<FaultInjector>(
        options_.faults, options_.fault_seed, options_.fault_attempt,
        options_.fault_cell);
    injector_->set_clock([this] { return events_.now(); });
  }

  for (const ModuleSpec& spec : memsys_.modules) {
    modules_.push_back(make_module(spec, events_));
    modules_.back()->set_fault_injector(injector_.get());
    phys_.add_module(modules_.back().get());
  }
  phys_.set_fault_injector(injector_.get());
  os_ = std::make_unique<os::Os>(phys_, *policy_);

  // Both page movers close an epoch every epoch_cycles; Os::try_remap
  // issues each move's copy traffic, and a pass that moved a page ends
  // with one batched TLB shootdown.
  if (options_.migration.has_value()) {
    migrator_ = std::make_unique<os::PageMigrator>(*os_,
                                                   *options_.migration);
    every(options_.migration->epoch_cycles * kCpuCyclePs, [this] {
      if (migrator_->run_epoch()) flush_tlbs();
      return true;
    });
  }

  if (options_.adaptive.has_value()) {
    adaptive_ = std::make_unique<core::AdaptiveEngine>(*os_, registry_,
                                                       *options_.adaptive);
    adaptive_->set_instruction_source([this](os::ProcessId pid) {
      // Process pids are created in core order, so pid indexes cores_.
      return cores_[pid].core->stats().committed;
    });
    every(options_.adaptive->epoch_cycles * kCpuCyclePs, [this] {
      if (adaptive_->run_epoch()) flush_tlbs();
      return true;
    });
  }

  for (std::size_t i = 0; i < apps_.size(); ++i) {
    AppInstance& app = apps_[i];
    PerCore pc;
    pc.pid = os_->create_process();
    if (app.classes.has_value()) {
      os_->set_app_class(pc.pid, app.classes->app_class);
    }

    pc.allocator = std::make_unique<core::MocaAllocator>(
        os_->address_space(pc.pid), registry_,
        app.classes.has_value() ? &*app.classes : nullptr);
    pc.allocator->set_fault_injector(injector_.get());
    pc.stream = std::make_unique<workload::AppStream>(
        app.spec, app.scale, app.seed, *pc.allocator,
        os_->address_space(pc.pid));

    pc.hierarchy = std::make_unique<cache::MemHierarchy>(
        options_.l1, options_.l2, events_,
        [this](std::uint64_t paddr, bool is_write,
               std::function<void(TimePs)> on_complete) {
          phys_.access(paddr, is_write, std::move(on_complete));
        });
    if (options_.prefetch_degree > 0) {
      pc.hierarchy->enable_next_line_prefetch(options_.prefetch_degree);
    }
    if (options_.enable_profiling || migrator_ != nullptr ||
        adaptive_ != nullptr) {
      pc.hierarchy->set_llc_miss_observer(
          [this](const cache::AccessContext& ctx) {
            if (options_.enable_profiling) profiler_.on_llc_miss(ctx);
            if (migrator_ != nullptr) {
              migrator_->record_miss(ctx.process, ctx.vaddr);
            }
            if (adaptive_ != nullptr) {
              adaptive_->record_miss(ctx.process, ctx.object, ctx.is_load);
            }
          });
    }

    pc.core = std::make_unique<cpu::Core>(
        static_cast<std::uint32_t>(i), options_.core_params, *pc.stream,
        *pc.hierarchy, *os_, pc.pid, events_);
    pc.core->set_budget(options_.instructions_per_core);
    if (options_.enable_profiling || adaptive_ != nullptr) {
      pc.core->set_stall_observer(
          [](void* sys, std::uint64_t pid, std::uint64_t object,
             std::uint64_t cycles) {
            System* system = static_cast<System*>(sys);
            if (system->options_.enable_profiling) {
              system->profiler_.on_head_stall(
                  static_cast<os::ProcessId>(pid), object, cycles);
            }
            if (system->adaptive_ != nullptr) {
              system->adaptive_->record_stall(
                  static_cast<os::ProcessId>(pid), object, cycles);
            }
          },
          this, pc.pid);
    }
    cores_.push_back(std::move(pc));
  }
  pretouch_pages();
  if (options_.observability.enabled()) register_observability();
}

std::uint64_t System::total_committed() const {
  std::uint64_t total = 0;
  for (const PerCore& pc : cores_) total += pc.core->stats().committed;
  return total;
}

void System::register_observability() {
  if (options_.observability.audit) {
    auditor_ = std::make_unique<os::Auditor>(
        *os_, [this] { return registry_.live_ranges(); });
  }
  if (options_.observability.epoch_instructions > 0) {
    for (std::size_t i = 0; i < cores_.size(); ++i) {
      const std::string prefix = "core" + std::to_string(i);
      cores_[i].core->register_stats(stat_registry_, prefix);
      cores_[i].hierarchy->register_stats(stat_registry_, prefix + "/cache");
      // Cross-component derived metrics live here because no single
      // component sees both operands.
      stat_registry_.ratio(prefix + "/ipc", prefix + "/instructions",
                           prefix + "/cycles");
      stat_registry_.ratio(prefix + "/mpki", prefix + "/cache/llc_misses",
                           prefix + "/instructions", 1000.0);
    }
    for (std::uint32_t m = 0; m < phys_.module_count(); ++m) {
      const dram::MemoryModule& module = phys_.module(m);
      const std::string prefix = "mem/" + module.name();
      module.register_stats(stat_registry_, prefix);
      stat_registry_.gauge(prefix + "/frames_used", [this, m] {
        return static_cast<double>(phys_.allocator(m).used_frames());
      });
    }
    os_->register_stats(stat_registry_, "os");
    registry_.register_stats(stat_registry_, "alloc");
    if (migrator_ != nullptr) {
      migrator_->register_stats(stat_registry_, "migration");
    }
    if (adaptive_ != nullptr) {
      adaptive_->register_stats(stat_registry_, "moca/adaptive");
    }
    if (injector_ != nullptr) {
      injector_->register_stats(stat_registry_, "faults");
    }
    if (auditor_ != nullptr) {
      auditor_->register_stats(stat_registry_, "os/audit");
    }
    series_ = std::make_unique<EpochSeries>(stat_registry_);
    next_epoch_boundary_ = options_.observability.epoch_instructions;
  }

  // The quantum trades boundary precision against event count: a quarter
  // epoch while sampling means a boundary fires at most ~N/4 instructions
  // late at IPC 1; trace-only runs need just a coarse pulse to detect
  // migration bursts and fallback spills.
  const std::uint64_t n = options_.observability.epoch_instructions;
  const Cycle quantum =
      n > 0 ? std::max<Cycle>(1000, static_cast<Cycle>(n / 4)) : 10'000;
  every(quantum * kCpuCyclePs, [this] {
    epoch_tick();
    return !sampling_stopped_;
  });
}

void System::flush_tlbs() {
  for (PerCore& pc : cores_) pc.core->flush_tlb();
}

void System::settle_cores() {
  const Cycle cycle = ps_to_cycle_ceil(events_.now());
  for (PerCore& pc : cores_) pc.core->settle(cycle);
}

void System::epoch_tick() {
  if (sampling_stopped_) return;
  if (auditor_ != nullptr) auditor_->run_audit();
  if (options_.observability.trace) {
    const os::OsStats& os_stats = os_->stats();
    const std::uint64_t fallbacks =
        os_stats.fallback_allocations + os_stats.last_resort_allocations;
    if (fallbacks > traced_fallbacks_) {
      trace_.instant("fallback_spill", "os", events_.now(),
                     {{"spills", fallbacks - traced_fallbacks_}});
      traced_fallbacks_ = fallbacks;
    }
    if (migrator_ != nullptr) {
      const os::MigrationStats& ms = migrator_->stats();
      const std::uint64_t moves = ms.promotions + ms.demotions;
      if (moves > traced_migrations_) {
        trace_.instant("migration_burst", "migration", events_.now(),
                       {{"promotions", ms.promotions},
                        {"demotions", ms.demotions}});
        traced_migrations_ = moves;
      }
    }
    if (adaptive_ != nullptr) {
      const core::AdaptiveStats& as = adaptive_->stats();
      if (as.reclassifications > traced_reclassifications_) {
        trace_.instant("adaptive_burst", "adaptive", events_.now(),
                       {{"promotions", as.object_promotions},
                        {"demotions", as.object_demotions},
                        {"moved_pages", as.moved_pages}});
        traced_reclassifications_ = as.reclassifications;
      }
    }
  }
  if (series_ != nullptr) {
    const std::uint64_t total = total_committed();
    if (total >= next_epoch_boundary_) {
      series_->sample(epoch_index_, events_.now(), total);
      if (options_.observability.trace) {
        trace_.instant("epoch", "sampler", events_.now(),
                       {{"epoch", epoch_index_}, {"instructions", total}});
      }
      ++epoch_index_;
      const std::uint64_t n = options_.observability.epoch_instructions;
      // Skip boundaries the quantum jumped over instead of emitting a
      // train of all-zero rows.
      next_epoch_boundary_ = total - total % n + n;
    }
  }
}

void System::pretouch_pages() {
  // Applications touch their memory in allocation/program order during
  // startup (reading inputs, building structures) — this happens inside the
  // paper's fast-forward phase, before the measured window, and it is what
  // fixes each page's physical placement ("the first one identified during
  // runtime", Sec. VI-A). Processes start concurrently, so their first
  // touches interleave: we round-robin one page per process.
  std::vector<std::vector<os::VirtAddr>> pages(cores_.size());
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    const workload::AppSpec& spec = apps_[i].spec;
    for (std::uint64_t off = 0; off < spec.stack_bytes; off += kPageBytes) {
      pages[i].push_back(os::kStackBase + off);
    }
    for (std::uint64_t off = 0; off < spec.code_bytes; off += kPageBytes) {
      pages[i].push_back(os::kCodeBase + off);
    }
  }
  for (const core::ObjectInstance& inst : registry_.all()) {
    for (std::uint64_t off = 0; off < inst.bytes; off += kPageBytes) {
      pages[inst.pid].push_back(inst.base + off);
    }
  }
  bool remaining = true;
  std::vector<std::size_t> cursor(cores_.size(), 0);
  while (remaining) {
    remaining = false;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
      if (cursor[i] < pages[i].size()) {
        (void)os_->translate(cores_[i].pid, pages[i][cursor[i]++]);
        remaining = true;
      }
    }
  }
}

System::~System() = default;

RunResult System::run(const RunContext& context) {
  // Transient whole-job faults fire before any simulation work so the
  // supervisor's retry replays the attempt from scratch.
  if (injector_ != nullptr) injector_->maybe_fail_job();
  const Cycle limit = cpu::cycle_limit(options_.instructions_per_core +
                                       options_.warmup_instructions);
  Cycle cycle = 0;
  std::vector<Cycle> absolute_finish(cores_.size(), 0);
  const auto record_finish = [&](const cpu::Core& core, Cycle at) {
    absolute_finish[core.id()] = at;
  };
  // Supervised deadline / interrupt, polled once per 4096-cycle block;
  // 4096 cycles is ~4.1 us simulated, far below any meaningful timeout
  // granularity. The text is fixed (no cycle number): where a wall-clock
  // deadline lands depends on host speed, and the text becomes the
  // outcome's deterministic error.
  const auto poll = [&context] {
    if (context.stop_requested()) {
      throw CancelledError(
          "simulation cancelled (wall-clock deadline or interrupt)");
    }
  };

  const auto run_phase = [&](auto budget_of) {
    // A core with nothing to run in this phase finishes where it starts.
    std::vector<cpu::Core*> running;
    for (PerCore& pc : cores_) {
      pc.core->set_budget(budget_of(pc.core->id()));
      if (pc.core->done()) {
        record_finish(*pc.core, cycle);
      } else {
        running.push_back(pc.core.get());
      }
    }
    cycle = cpu::run_cores(std::move(running), events_, cycle, limit, poll,
                           record_finish);
  };

  // Warm-up phase: run, then snapshot every counter and discard it.
  Cycle warmup_end = 0;
  std::vector<cpu::CoreStats> core_base(cores_.size());
  std::vector<cache::HierarchyStats> hier_base(cores_.size());
  std::vector<dram::ChannelStats> module_base(phys_.module_count());
  if (options_.warmup_instructions > 0) {
    run_phase([&](std::size_t) { return options_.warmup_instructions; });
    warmup_end = cycle;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
      core_base[i] = cores_[i].core->stats();
      hier_base[i] = cores_[i].hierarchy->stats();
    }
    for (std::uint32_t m = 0; m < phys_.module_count(); ++m) {
      module_base[m] = phys_.module(m).stats();
    }
    profiler_.reset();
    if (options_.observability.trace) {
      trace_.instant("warmup_end", "phase", cycle_to_ps(warmup_end));
    }
  }

  // Measured phase.
  run_phase([&](std::size_t i) {
    return cores_[i].core->stats().committed +
           options_.instructions_per_core;
  });
  const Cycle measured_end = cycle;
  if (series_ != nullptr) {
    // Close the last (possibly partial) epoch so even runs shorter than
    // one epoch produce a non-empty time-series.
    const std::uint64_t total = total_committed();
    if (series_->rows().empty() ||
        series_->rows().back().instructions < total) {
      series_->sample(epoch_index_++, cycle_to_ps(measured_end), total);
    }
  }
  if (options_.observability.trace) {
    trace_.complete("measured", "phase", cycle_to_ps(warmup_end),
                    cycle_to_ps(measured_end - warmup_end));
  }
  // Stop sampling before the drain: the tick already scheduled fires once
  // more, sees the flag and does not reschedule, so the drain window adds
  // no rows or events.
  sampling_stopped_ = true;
  // Drain in-flight memory traffic so module counters are complete; the
  // drain happens after every finish timestamp, so no metric includes it.
  events_.run_until(cycle_to_ps(cycle) + 50'000'000);
  // Final audit over the settled end state (mappings, free lists and the
  // object LUT are all quiescent here).
  if (auditor_ != nullptr) auditor_->run_audit();

  RunResult result;
  result.memsys_name = memsys_.name;
  result.policy_name = policy_->name();
  result.os_stats = os_->stats();
  if (migrator_ != nullptr) result.migration = migrator_->stats();
  if (adaptive_ != nullptr) result.adaptive = adaptive_->stats();

  for (std::size_t i = 0; i < cores_.size(); ++i) {
    PerCore& pc = cores_[i];
    CoreResult cr;
    cr.app_name = apps_[pc.pid].spec.name;
    cr.core = pc.core->stats();
    cr.core -= core_base[i];
    cr.hierarchy = pc.hierarchy->stats();
    cr.hierarchy -= hier_base[i];
    cr.profile =
        profiler_.finalize(cr.app_name, pc.pid, cr.core.committed);
    cr.finish_time = cycle_to_ps(absolute_finish[i] - warmup_end);
    result.exec_time = std::max(result.exec_time, cr.finish_time);
    result.total_instructions += cr.core.committed;
    result.total_llc_misses += cr.hierarchy.llc_misses;
    result.cores.push_back(std::move(cr));
  }

  for (std::uint32_t m = 0; m < phys_.module_count(); ++m) {
    const dram::MemoryModule& module = phys_.module(m);
    ModuleResult mr;
    mr.name = module.name();
    mr.kind = module.kind();
    mr.capacity_bytes = module.capacity_bytes();
    mr.stats = module.stats();
    mr.stats -= module_base[m];
    mr.energy_j = power::dram_energy_joules(
        power::dram_power_params(module.kind()), mr.stats,
        module.capacity_bytes(), result.exec_time);
    mr.frames_used = phys_.allocator(m).used_frames();
    result.total_mem_access_time += mr.stats.total_access_time_ps();
    result.memory_energy_j += mr.energy_j;
    result.modules.push_back(std::move(mr));
  }

  for (const CoreResult& cr : result.cores) {
    power::CoreActivity activity;
    activity.busy_time = cr.finish_time;
    activity.l1_accesses = cr.hierarchy.l1_accesses;
    activity.l2_accesses = cr.hierarchy.l2_accesses;
    result.core_energy_j +=
        power::core_energy_joules(options_.core_power, activity);
  }

  if (options_.observability.enabled()) {
    result.observability.epoch_instructions =
        options_.observability.epoch_instructions;
    result.observability.warmup_end_ps = cycle_to_ps(warmup_end);
    if (series_ != nullptr) {
      result.observability.columns = series_->columns();
      result.observability.kinds = series_->kinds();
      result.observability.rows = series_->take_rows();
    }
    result.observability.trace = trace_.take();
  }
  return result;
}

}  // namespace moca::sim
