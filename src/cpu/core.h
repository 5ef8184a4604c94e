// Cycle-approximate out-of-order core (paper Table I).
//
// Width-3 dispatch/issue/commit, 84-entry ROB, 32-entry load queue, 2 L1
// load ports, 64-entry TLB with a fixed page-walk penalty. Instructions come
// from an OpStream; dependencies are backward distances. The model captures
// exactly what MOCA profiles: memory-level parallelism (bounded by
// dependencies, the LQ and the MSHR file) and ROB-head stall cycles blocked
// on LLC-missing loads, attributed per memory object.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "cache/hierarchy.h"
#include "common/check.h"
#include "common/event_queue.h"
#include "common/small_vec.h"
#include "common/stat_registry.h"
#include "common/time.h"
#include "cpu/microop.h"
#include "os/os.h"
#include "os/page_table.h"

namespace moca::cpu {

struct CoreParams {
  std::uint32_t rob_entries = 84;
  std::uint32_t lq_entries = 32;
  std::uint32_t width = 3;
  std::uint32_t l1_load_ports = 2;
  std::uint32_t tlb_entries = 64;
  Cycle page_walk_cycles = 50;
  /// In-order issue (stall-on-use): instructions issue strictly in program
  /// order, completions still overlap. Models the simpler cores of the
  /// paper's embedded-systems motivation; bench/ablation_inorder compares.
  bool in_order = false;
};

struct CoreStats {
  std::uint64_t committed = 0;
  Cycle cycles = 0;
  std::uint64_t alu_ops = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  /// Loads whose data came from DRAM (primary or merged LLC misses).
  std::uint64_t load_llc_misses = 0;
  /// Cycles commit was blocked by an incomplete LLC-missing load at the ROB
  /// head — the paper's MLP metric numerator (Sec. III-A).
  Cycle rob_head_stall_cycles = 0;
  std::uint64_t tlb_hits = 0;
  std::uint64_t tlb_misses = 0;
  std::uint64_t mshr_reject_cycles = 0;  // cycles load issue hit full MSHRs

  [[nodiscard]] double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(committed) /
                             static_cast<double>(cycles);
  }

  /// Subtracts a warmup-snapshot baseline (all counters are monotonic).
  CoreStats& operator-=(const CoreStats& o) {
    committed -= o.committed;
    cycles -= o.cycles;
    alu_ops -= o.alu_ops;
    loads -= o.loads;
    stores -= o.stores;
    load_llc_misses -= o.load_llc_misses;
    rob_head_stall_cycles -= o.rob_head_stall_cycles;
    tlb_hits -= o.tlb_hits;
    tlb_misses -= o.tlb_misses;
    mshr_reject_cycles -= o.mshr_reject_cycles;
    return *this;
  }

  friend bool operator==(const CoreStats&, const CoreStats&) = default;
};

/// One simulated core bound to a process and a private cache hierarchy.
class Core {
 public:
  /// Reports `cycles` cycles in which the ROB head stalled on an
  /// LLC-missing load, with that load's object tag (profiler hook): 1 from
  /// a step, a sleeping core's skipped steps at once when it is charged
  /// (so sinks must only add the count). Flat (function pointer, context,
  /// payload) form: this fires millions of times per run, and the
  /// observers are all `method(fixed_arg, object, cycles)` calls, so the
  /// extra dispatch hop and construction cost of std::function buys
  /// nothing.
  using StallObserver = void (*)(void* ctx, std::uint64_t arg,
                                 std::uint64_t object, std::uint64_t cycles);

  Core(std::uint32_t core_id, const CoreParams& params, OpStream& stream,
       cache::MemHierarchy& hierarchy, os::Os& os, os::ProcessId pid,
       EventQueue& events);

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  /// Runs until `instructions` have committed.
  void set_budget(std::uint64_t instructions) { budget_ = instructions; }
  [[nodiscard]] bool done() const { return stats_.committed >= budget_; }

  /// Advances one cycle. The caller must have drained the event queue up to
  /// this cycle's timestamp first.
  void step();

  /// True when the last step() changed nothing but `cycles`,
  /// `rob_head_stall_cycles` and `mshr_reject_cycles`: no wheel slot ran,
  /// nothing committed, issued, dispatched or fetched. Until a wheel slot
  /// or an event's complete() changes the core, every further step repeats
  /// that one. In-order cores are never idle: their page-walk wait is not
  /// on the wheel, so the wheel cannot say when it ends.
  [[nodiscard]] bool idle() const { return idle_; }

  /// Sleeping, on the caller's clock (see run_cores). After an idle step,
  /// sleep(next) takes the core out of the step loop: `next` is the first
  /// caller cycle whose step is not yet charged, and wake_cycle() the one
  /// in which its next completion-wheel slot is due (max() for none).
  /// complete() wakes it early, in the cycle whose run_until is dispatching
  /// the event. settle(c) charges a sleeping core the idle steps of every
  /// cycle before `c` without waking it; wake(c) settles, then the core
  /// steps again from cycle `c` on.
  void sleep(Cycle next);
  [[nodiscard]] bool asleep() const { return asleep_; }
  [[nodiscard]] Cycle wake_cycle() const { return wake_at_; }
  void settle(Cycle cycle);
  void wake(Cycle cycle) {
    settle(cycle);
    asleep_ = false;
  }

  void set_stall_observer(StallObserver observer, void* ctx,
                          std::uint64_t arg) {
    stall_observer_ = observer;
    stall_observer_ctx_ = ctx;
    stall_observer_arg_ = arg;
  }

  /// TLB shootdown (page migration). In-flight loads keep their already-
  /// translated physical addresses — the handful of accesses in the window
  /// may still hit the old frame, matching real shootdown latency slack.
  void flush_tlb() { tlb_.flush(); }

  /// Registers this core's counters under `prefix` (e.g. "core0"). Probes
  /// read the live CoreStats fields, so registration itself adds no
  /// per-cycle cost (see common/stat_registry.h).
  void register_stats(StatRegistry& registry,
                      const std::string& prefix) const;

  [[nodiscard]] const CoreStats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t id() const { return core_id_; }
  [[nodiscard]] os::ProcessId pid() const { return pid_; }
  /// Cycle at which the instruction budget was reached (== cycles while
  /// still running).
  [[nodiscard]] Cycle finish_cycle() const { return finish_cycle_; }

 private:
  struct Entry {
    MicroOp op;
    std::uint64_t seq = 0;
    std::uint64_t paddr = 0;
    Cycle walk_done = 0;  // loads: cycle their page walk completes
    bool valid = false;
    bool done = false;
    bool issued = false;
    bool translated = false;
    bool llc_miss = false;
    std::uint8_t deps_remaining = 0;
    // Segment decode (os::segment_of) done once at dispatch; reused by
    // every issue attempt and by store retirement instead of re-resolving
    // per attempt (deferred loads can retry for many cycles).
    std::uint8_t segment = 0;
    // Consumer seq numbers; ops rarely feed more than a few in-window
    // consumers, so the inline capacity makes dispatch allocation-free.
    SmallVec<std::uint64_t, 4> dependents;
  };
  // Delayed micro-events inside the core (ALU completion, page-walk done).
  struct WheelItem {
    std::uint64_t seq = 0;
    bool is_completion = false;  // else: load becomes ready to issue
  };

  static constexpr std::uint32_t kWheelSize = 128;

  // The backing array is the ROB capacity rounded up to a power of two, so
  // the per-access seq->slot map is a mask instead of a 64-bit division
  // (slot() runs several times per cycle in every pipeline stage). Capacity
  // checks use params_.rob_entries; any window of <= rob_size consecutive
  // seqs maps to distinct slots, so occupancy logic is unaffected.
  [[nodiscard]] Entry& slot(std::uint64_t seq) {
    return rob_[seq & rob_mask_];
  }
  /// Runs the wheel slot due this cycle; false when none was due.
  bool run_wheel();
  /// Cycle (on the core's own step count, stats().cycles) at which the
  /// completion wheel next has a slot due; max() when it is empty.
  [[nodiscard]] Cycle next_wheel_cycle() const;
  /// Repeats the counter effects of the last, idle step `n` times; the
  /// stall observer receives them as one call with count `n`.
  void skip(Cycle n);
  void do_commit();
  void do_issue();
  void do_issue_in_order();
  void do_dispatch();
  void complete(std::uint64_t seq);
  void wake_dependents(Entry& entry);
  void make_ready(Entry& entry);
  bool issue_load(Entry& entry);
  void retire_store(Entry& entry);
  void schedule_wheel(Cycle at, WheelItem item);
  /// TLB lookup + (on miss) page walk; returns the physical address and
  /// whether a walk was needed.
  std::uint64_t translate(std::uint64_t vaddr, bool* walked);

  std::uint32_t core_id_;
  CoreParams params_;
  OpStream& stream_;
  cache::MemHierarchy& hierarchy_;
  os::Os& os_;
  os::ProcessId pid_;
  EventQueue& events_;
  os::Tlb tlb_;

  // Ready queue as a power-of-two ring buffer. Every ROB entry is enqueued
  // at most once (make_ready fires once per entry; deferred loads are
  // popped and re-pushed within one do_issue pass), so occupancy never
  // exceeds the ROB capacity and the ring never wraps onto itself. Indices
  // grow monotonically (unsigned wraparound is benign with the mask).
  // ready_non_loads_ counts ALU and store entries at push and drops only
  // when one is popped live, so a stale entry can keep it above the true
  // count but never below: do_issue stops scanning only at a true zero.
  [[nodiscard]] bool ready_empty() const {
    return ready_head_ == ready_tail_;
  }
  void ready_push_back(std::uint64_t seq) {
    ready_buf_[ready_tail_++ & ready_mask_] = seq;
    MOCA_CHECK(ready_tail_ - ready_head_ <= ready_buf_.size());
  }
  void ready_push_front(std::uint64_t seq) {
    ready_buf_[--ready_head_ & ready_mask_] = seq;
    MOCA_CHECK(ready_tail_ - ready_head_ <= ready_buf_.size());
  }
  std::uint64_t ready_pop_front() {
    return ready_buf_[ready_head_++ & ready_mask_];
  }

  std::vector<Entry> rob_;
  std::uint64_t rob_mask_ = 0;    // rob_.size() - 1 (power of two)
  std::uint64_t dispatched_ = 0;  // next seq to dispatch
  std::uint64_t committed_ = 0;   // next seq to commit
  std::uint64_t next_issue_ = 0;  // in-order mode: next seq to issue
  std::uint32_t lq_used_ = 0;
  std::vector<std::uint64_t> ready_buf_;
  std::uint64_t ready_mask_ = 0;
  std::uint64_t ready_head_ = 0;
  std::uint64_t ready_tail_ = 0;
  std::uint64_t ready_non_loads_ = 0;
  // Scratch for do_issue's deferred loads, hoisted out of the per-cycle
  // loop so its capacity is reused instead of reallocated every cycle.
  std::vector<std::uint64_t> issue_deferred_;
  std::vector<std::vector<WheelItem>> wheel_;
  // One bit per wheel bucket: set on schedule, cleared when the bucket runs.
  std::array<std::uint64_t, kWheelSize / 64> wheel_occ_{};
  MicroOp fetched_;          // one-op fetch buffer (LQ back-pressure)
  bool fetched_valid_ = false;
  std::uint64_t budget_ = 0;
  Cycle finish_cycle_ = 0;
  // The last step: idle or not, and whether it counted a head stall and an
  // MSHR reject (the counter effects skip() repeats).
  bool idle_ = false;
  bool last_stalled_ = false;
  bool last_rejected_ = false;
  // Sleeping state, in caller cycles: the first step not yet charged and
  // the cycle the wheel wakes the core.
  bool asleep_ = false;
  Cycle sleep_from_ = 0;
  Cycle wake_at_ = 0;
  StallObserver stall_observer_ = nullptr;
  void* stall_observer_ctx_ = nullptr;
  std::uint64_t stall_observer_arg_ = 0;
  CoreStats stats_;
};

/// Deadlock guard for a run of `instructions` per core, warm-up included:
/// no workload should run below IPC 0.005. Budgets above
/// kMaxGuardedInstructions would push it past kMaxCyclesInPs, so the
/// experiment knobs reject them at parse time.
[[nodiscard]] constexpr Cycle cycle_limit(std::uint64_t instructions) {
  return static_cast<Cycle>(instructions) * 200 + 1'000'000;
}
inline constexpr std::uint64_t kMaxGuardedInstructions =
    static_cast<std::uint64_t>((kMaxCyclesInPs - 1'000'000) / 200);

/// The step loop of every caller that runs cores. Runs `cores` (not yet
/// done, in id order) to their budgets on the caller's clock from `cycle`
/// and returns the cycle after the last step. Each cycle drains `events`
/// up to its start, then steps the awake cores in order; a core whose step
/// was idle sleeps until its wheel or a complete() wakes it. When every
/// core sleeps, the clock jumps to the earliest wake cycle, next event or
/// `limit`. `poll` runs in every 4096-cycle block the clock enters;
/// `on_done(core, c)` reports a core that finished with the cycle after
/// its last step. Reaching `limit` charges every core up to it and throws
/// CheckError. Events that read core counters must settle() the sleeping
/// cores to their cycle first (sim::System::every does).
Cycle run_cores(std::vector<Core*> cores, EventQueue& events, Cycle cycle,
                Cycle limit, const std::function<void()>& poll = {},
                const std::function<void(const Core&, Cycle)>& on_done = {});

}  // namespace moca::cpu
