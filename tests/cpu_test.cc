// Core model tests: width limits, dependencies, load latency, MLP,
// ROB-head stall accounting, TLB behaviour, per-core sleeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "cache/hierarchy.h"
#include "common/event_queue.h"
#include "cpu/core.h"
#include "dram/module.h"
#include "moca/policies.h"
#include "os/os.h"
#include "proptest.h"

namespace moca::cpu {
namespace {

/// Fixed script followed by independent ALU filler.
class ScriptStream final : public OpStream {
 public:
  explicit ScriptStream(std::vector<MicroOp> script)
      : script_(std::move(script)) {}
  MicroOp next() override {
    if (index_ < script_.size()) return script_[index_++];
    return MicroOp{};  // independent 1-cycle ALU
  }

 private:
  std::vector<MicroOp> script_;
  std::size_t index_ = 0;
};

struct Fixture {
  EventQueue events;
  dram::MemoryModule module;
  os::PhysicalMemory phys;
  core::HomogeneousPolicy policy{dram::MemKind::kDdr3};
  std::unique_ptr<os::Os> os;
  std::unique_ptr<cache::MemHierarchy> hier;
  std::unique_ptr<ScriptStream> stream;
  std::unique_ptr<Core> core;
  TimePs mem_latency = 60'000;

  explicit Fixture(std::vector<MicroOp> script, CoreParams params = {})
      : module(dram::make_ddr3(), 256 * MiB, 1, events, "mem") {
    phys.add_module(&module);
    os = std::make_unique<os::Os>(phys, policy);
    const os::ProcessId pid = os->create_process();
    hier = std::make_unique<cache::MemHierarchy>(
        cache::default_l1d(), cache::default_l2(), events,
        [this](std::uint64_t, bool, std::function<void(TimePs)> cb) {
          if (cb) {
            events.schedule(
                events.now() + mem_latency,
                [cb = std::move(cb), t = events.now() + mem_latency] {
                  cb(t);
                });
          }
        });
    const std::size_t budget = script.size();
    stream = std::make_unique<ScriptStream>(std::move(script));
    core = std::make_unique<Core>(0, params, *stream, *hier, *os, pid,
                                  events);
    core->set_budget(budget);
  }

  void run() {
    Cycle cycle = 0;
    while (!core->done()) {
      events.run_until(cycle_to_ps(cycle));
      core->step();
      ++cycle;
      ASSERT_LT(cycle, 10'000'000) << "core deadlocked";
    }
  }
};

MicroOp alu(std::uint32_t dep = 0, std::uint8_t latency = 1) {
  MicroOp op;
  op.kind = OpKind::kAlu;
  op.latency = latency;
  op.dep1 = dep;
  return op;
}

MicroOp load(std::uint64_t vaddr, std::uint32_t dep = 0,
             std::uint64_t object = cache::kNoObject) {
  MicroOp op;
  op.kind = OpKind::kLoad;
  op.vaddr = vaddr;
  op.dep1 = dep;
  op.object = object;
  return op;
}

MicroOp store(std::uint64_t vaddr) {
  MicroOp op;
  op.kind = OpKind::kStore;
  op.vaddr = vaddr;
  return op;
}

TEST(Core, IndependentAluRunsAtFullWidth) {
  Fixture f(std::vector<MicroOp>(3000, alu()));
  f.run();
  EXPECT_GT(f.core->stats().ipc(), 2.7);
  EXPECT_EQ(f.core->stats().committed, 3000u);
}

TEST(Core, SerialDependencyChainRunsAtIpcOne) {
  Fixture f(std::vector<MicroOp>(2000, alu(/*dep=*/1)));
  f.run();
  EXPECT_LT(f.core->stats().ipc(), 1.1);
  EXPECT_GT(f.core->stats().ipc(), 0.9);
}

TEST(Core, TwoCycleAluHalvesChainThroughput) {
  Fixture f(std::vector<MicroOp>(2000, alu(1, 2)));
  f.run();
  EXPECT_NEAR(f.core->stats().ipc(), 0.5, 0.06);
}

TEST(Core, SingleLoadMissStallsRobHead) {
  std::vector<MicroOp> script;
  script.push_back(load(os::kHeapPowBase, 0, /*object=*/5));
  for (int i = 0; i < 50; ++i) script.push_back(alu());
  Fixture f(script);
  std::vector<std::uint64_t> stalled_objects;
  f.core->set_stall_observer(
      [](void* out, std::uint64_t /*arg*/, std::uint64_t obj,
         std::uint64_t /*cycles*/) {
        static_cast<std::vector<std::uint64_t>*>(out)->push_back(obj);
      },
      &stalled_objects, 0);
  f.run();
  // The load misses LLC (cold) and blocks the head for ~ memory latency.
  EXPECT_GT(f.core->stats().rob_head_stall_cycles, 40);
  EXPECT_EQ(f.core->stats().load_llc_misses, 1u);
  ASSERT_FALSE(stalled_objects.empty());
  for (const std::uint64_t obj : stalled_objects) EXPECT_EQ(obj, 5u);
}

TEST(Core, IndependentLoadsOverlapDependentLoadsDoNot) {
  // 40 loads to distinct pages, spaced by 3 ALU ops.
  auto build = [](bool dependent) {
    std::vector<MicroOp> script;
    for (int i = 0; i < 40; ++i) {
      script.push_back(load(os::kHeapPowBase + static_cast<std::uint64_t>(i) *
                                                   kPageBytes,
                            dependent && i > 0 ? 4u : 0u));
      script.push_back(alu());
      script.push_back(alu());
      script.push_back(alu());
    }
    return script;
  };
  Fixture independent(build(false));
  independent.run();
  Fixture dependent(build(true));
  dependent.run();
  // Dependent (chase) execution must be much slower than independent.
  EXPECT_GT(dependent.core->stats().cycles,
            independent.core->stats().cycles * 2);
  // And its stall-per-miss must be higher.
  const double ind_spm =
      static_cast<double>(independent.core->stats().rob_head_stall_cycles) /
      static_cast<double>(independent.core->stats().load_llc_misses);
  const double dep_spm =
      static_cast<double>(dependent.core->stats().rob_head_stall_cycles) /
      static_cast<double>(dependent.core->stats().load_llc_misses);
  EXPECT_GT(dep_spm, ind_spm * 1.5);
}

TEST(Core, TlbMissPaysPageWalk) {
  // Two loads to the same (cold) page: only the first pays the walk.
  std::vector<MicroOp> one{load(os::kHeapPowBase)};
  Fixture first(one);
  first.run();

  std::vector<MicroOp> two{load(os::kHeapPowBase),
                           load(os::kHeapPowBase + 8, 1)};
  Fixture second(two);
  second.run();
  EXPECT_EQ(first.core->stats().tlb_misses, 1u);
  EXPECT_EQ(second.core->stats().tlb_misses, 1u);
  EXPECT_EQ(second.core->stats().tlb_hits, 1u);
}

TEST(Core, StoresRetireWithoutBlockingAndReachHierarchy) {
  std::vector<MicroOp> script;
  for (int i = 0; i < 100; ++i) {
    script.push_back(store(os::kHeapPowBase + static_cast<std::uint64_t>(i) *
                                                  64));
  }
  Fixture f(script);
  f.run();
  EXPECT_EQ(f.core->stats().stores, 100u);
  EXPECT_EQ(f.hier->stats().stores, 100u);
  // Stores never stall the ROB head in this model.
  EXPECT_EQ(f.core->stats().rob_head_stall_cycles, 0);
}

TEST(Core, LqBackpressureDoesNotDeadlock) {
  // 200 back-to-back loads to distinct lines of one page.
  std::vector<MicroOp> script;
  for (int i = 0; i < 200; ++i) {
    script.push_back(
        load(os::kHeapPowBase + static_cast<std::uint64_t>(i % 64) * 64));
  }
  CoreParams params;
  params.lq_entries = 4;
  Fixture f(script, params);
  f.run();
  EXPECT_EQ(f.core->stats().committed, 200u);
}

TEST(Core, DoneAfterBudgetAndFinishCycleRecorded) {
  Fixture f(std::vector<MicroOp>(300, alu()));
  f.run();
  EXPECT_TRUE(f.core->done());
  EXPECT_EQ(f.core->finish_cycle(), f.core->stats().cycles);
  const Cycle finished = f.core->finish_cycle();
  f.core->step();  // no-op once done
  EXPECT_EQ(f.core->stats().cycles, finished);
}

TEST(Core, DeterministicAcrossRuns) {
  auto make_script = [] {
    std::vector<MicroOp> script;
    for (int i = 0; i < 500; ++i) {
      if (i % 7 == 0) {
        script.push_back(load(os::kHeapPowBase + static_cast<std::uint64_t>(
                                                     (i * 37) % 1000) *
                                                     64,
                              i % 3 == 0 ? 2u : 0u));
      } else if (i % 11 == 0) {
        script.push_back(store(os::kHeapPowBase + 64));
      } else {
        script.push_back(alu(i % 4));
      }
    }
    return script;
  };
  Fixture a(make_script());
  a.run();
  Fixture b(make_script());
  b.run();
  EXPECT_EQ(a.core->stats().cycles, b.core->stats().cycles);
  EXPECT_EQ(a.core->stats().rob_head_stall_cycles,
            b.core->stats().rob_head_stall_cycles);
  EXPECT_EQ(a.core->stats().load_llc_misses, b.core->stats().load_llc_misses);
}

/// Per-object ROB-head stall cycles as the stall observer reports them.
using StallSums = std::map<std::uint64_t, std::uint64_t>;

void add_stalls(void* sums, std::uint64_t /*arg*/, std::uint64_t object,
                std::uint64_t cycles) {
  (*static_cast<StallSums*>(sums))[object] += cycles;
}

/// Random micro-op tape in one of four styles that reach the idle states:
/// independent loads to distinct lines (MSHR saturation), load runs (LQ
/// back-pressure with a small LQ), pointer chases (each load feeds the
/// next), and a mix with ALU and store traffic.
std::vector<MicroOp> random_tape(proptest::Gen& g) {
  const std::uint64_t style = g.below(4);
  const std::uint64_t load_percent = std::vector<std::uint64_t>{90, 70, 50,
                                                                30}[style];
  const std::uint64_t n = g.range(1, 400);
  std::vector<MicroOp> tape;
  std::uint64_t last_load = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    MicroOp op;
    if (g.below(100) < load_percent) {
      op.kind = OpKind::kLoad;
      op.vaddr = os::kHeapPowBase + g.below(256) * kPageBytes +
                 g.below(kPageBytes / kLineBytes) * kLineBytes;
      op.object = g.below(4) == 0 ? cache::kNoObject : 1 + g.below(3);
      if (style == 2 && last_load > 0) {
        op.dep1 = static_cast<std::uint32_t>(i + 1 - last_load);
      } else if (g.below(4) == 0) {
        op.dep1 = static_cast<std::uint32_t>(g.range(1, 8));
      }
      last_load = i + 1;
    } else if (g.below(4) == 0) {
      op.kind = OpKind::kStore;
      op.vaddr = os::kHeapPowBase + g.below(256) * kPageBytes;
      op.object = 1 + g.below(3);
    } else {
      op.latency = static_cast<std::uint8_t>(g.range(1, 12));
      op.dep1 = static_cast<std::uint32_t>(g.below(6));
    }
    tape.push_back(op);
  }
  return tape;
}

/// Cores on private hierarchies that share one event queue and one memory
/// channel serving a request at a time, so each core's timing depends on
/// the others' traffic. The channel logs every request it sees, and a
/// periodic event snapshots every core's counters and stall sums.
struct Machine {
  struct Request {
    TimePs time = 0;
    std::uint32_t core = 0;
    std::uint64_t paddr = 0;
    bool is_write = false;
    bool operator==(const Request&) const = default;
  };
  struct Snapshot {
    std::vector<CoreStats> stats;
    std::vector<StallSums> stalls;
    bool operator==(const Snapshot&) const = default;
  };

  EventQueue events;
  dram::MemoryModule module;
  os::PhysicalMemory phys;
  core::HomogeneousPolicy policy{dram::MemKind::kDdr3};
  std::unique_ptr<os::Os> os;
  std::vector<std::unique_ptr<cache::MemHierarchy>> hiers;
  std::vector<std::unique_ptr<ScriptStream>> streams;
  std::vector<std::unique_ptr<Core>> cores;
  std::vector<StallSums> stalls;
  std::vector<Request> requests;
  std::vector<Snapshot> snapshots;
  std::vector<Cycle> finish;  // caller cycle after each core's last step
  // Sleeping cores seen by the snapshots, and those seen while another
  // core was awake.
  std::uint64_t slept = 0;
  std::uint64_t slept_beside_a_runner = 0;
  TimePs latency = 0;
  TimePs service = 0;
  TimePs busy_until = 0;

  Machine(const std::vector<std::vector<MicroOp>>& tapes,
          const std::vector<CoreParams>& params, TimePs latency_ps,
          TimePs service_ps)
      : module(dram::make_ddr3(), 256 * MiB, 1, events, "mem"),
        stalls(tapes.size()),
        finish(tapes.size(), 0),
        latency(latency_ps),
        service(service_ps) {
    phys.add_module(&module);
    os = std::make_unique<os::Os>(phys, policy);
    for (std::uint32_t i = 0; i < tapes.size(); ++i) {
      const os::ProcessId pid = os->create_process();
      hiers.push_back(std::make_unique<cache::MemHierarchy>(
          cache::default_l1d(), cache::default_l2(), events,
          [this, i](std::uint64_t paddr, bool is_write,
                    std::function<void(TimePs)> cb) {
            requests.push_back({events.now(), i, paddr, is_write});
            const TimePs start = std::max(events.now(), busy_until);
            busy_until = start + service;
            if (cb) {
              const TimePs done = start + latency;
              events.schedule(done, [cb = std::move(cb), done] { cb(done); });
            }
          }));
      streams.push_back(std::make_unique<ScriptStream>(tapes[i]));
      cores.push_back(std::make_unique<Core>(i, params[i], *streams[i],
                                             *hiers[i], *os, pid, events));
      cores[i]->set_stall_observer(add_stalls, &stalls[i], 0);
    }
  }

  /// Snapshots every `period` from `start` while a core still runs, up to
  /// kMaxSnapshots (a run that never finishes must not grow without
  /// bound). With `settle`, sleeping cores are charged first, as
  /// sim::System::every does.
  static constexpr std::size_t kMaxSnapshots = 20'000;
  void snapshot_every(TimePs start, TimePs period, bool settle) {
    events.schedule(start, [this, period, settle] {
      if (settle) {
        for (auto& core : cores) {
          core->settle(ps_to_cycle_ceil(events.now()));
        }
      }
      Snapshot snap;
      bool running = false;
      bool awake = false;
      std::uint64_t asleep = 0;
      for (std::size_t i = 0; i < cores.size(); ++i) {
        snap.stats.push_back(cores[i]->stats());
        snap.stalls.push_back(stalls[i]);
        running |= !cores[i]->done();
        awake |= !cores[i]->done() && !cores[i]->asleep();
        asleep += cores[i]->asleep() ? 1 : 0;
      }
      slept += asleep;
      if (awake) slept_beside_a_runner += asleep;
      snapshots.push_back(std::move(snap));
      if (running && snapshots.size() < kMaxSnapshots) {
        snapshot_every(events.now() + period, period, settle);
      }
    });
  }

  void set_budgets(const std::vector<std::uint64_t>& budgets) {
    for (std::size_t i = 0; i < cores.size(); ++i) {
      cores[i]->set_budget(budgets[i]);
    }
  }

  /// The reference loop: every unfinished core steps every cycle.
  Cycle step_every_cycle(Cycle cycle, Cycle limit) {
    const auto running = [this] {
      for (const auto& core : cores) {
        if (!core->done()) return true;
      }
      return false;
    };
    while (running()) {
      events.run_until(cycle_to_ps(cycle));
      for (std::size_t i = 0; i < cores.size(); ++i) {
        if (cores[i]->done()) continue;
        cores[i]->step();
        if (cores[i]->done()) finish[i] = cycle + 1;
      }
      ++cycle;
      if (cycle >= limit) throw CheckError("per-cycle run hit the limit");
    }
    return cycle;
  }

  Cycle run(Cycle cycle, Cycle limit) {
    std::vector<Core*> running;
    for (const auto& core : cores) {
      if (!core->done()) running.push_back(core.get());
    }
    return run_cores(running, events, cycle, limit, {},
                     [this](const Core& core, Cycle at) {
                       finish[core.id()] = at;
                     });
  }
};

TEST(Core, IdleSkipMatchesPerCycleStepping) {
  // Twin machines of 1-4 cores run the same tapes: one steps every core
  // every cycle, the other runs through run_cores, where an idle core
  // sleeps while the others keep stepping and the clock jumps once all
  // sleep. Each core runs two phases (a short first budget, then the rest
  // of its tape), so a core that finished early sits out while the others
  // run and its own cycle count lags the caller's clock, as after warm-up
  // in sim::System. Channel latencies and snapshot periods off the cycle
  // grid exercise the event-horizon rounding.
  std::uint64_t slept = 0;
  std::uint64_t slept_beside_a_runner = 0;
  const proptest::Property prop = [&](proptest::Gen& g) {
    const std::size_t n = static_cast<std::size_t>(g.range(1, 4));
    std::vector<CoreParams> params(n);
    std::vector<std::vector<MicroOp>> tapes;
    std::vector<std::uint64_t> first_budgets;
    std::vector<std::uint64_t> full_budgets;
    for (CoreParams& p : params) {
      p.in_order = g.chance(0.2);
      p.rob_entries = static_cast<std::uint32_t>(
          g.pick(std::vector<std::uint64_t>{84, 8, 128}));
      p.lq_entries = static_cast<std::uint32_t>(
          g.pick(std::vector<std::uint64_t>{32, 4}));
      p.width = static_cast<std::uint32_t>(g.range(1, 3));
      p.l1_load_ports = static_cast<std::uint32_t>(g.range(1, 2));
      p.page_walk_cycles = static_cast<Cycle>(
          g.pick(std::vector<std::uint64_t>{50, 0, 127}));
      tapes.push_back(random_tape(g));
      full_budgets.push_back(tapes.back().size());
      first_budgets.push_back(g.range(1, tapes.back().size()));
    }
    const TimePs latency = static_cast<TimePs>(g.range(1'000, 300'000));
    const TimePs service = static_cast<TimePs>(g.range(0, 20'000));
    const TimePs period = static_cast<TimePs>(g.range(1'700, 40'000));
    const Cycle offset = static_cast<Cycle>(g.below(5'000));
    const Cycle limit = offset + 2'000'000;

    Machine naive(tapes, params, latency, service);
    Machine sleeping(tapes, params, latency, service);
    naive.snapshot_every(cycle_to_ps(offset) + period, period, false);
    sleeping.snapshot_every(cycle_to_ps(offset) + period, period, true);
    Cycle naive_cycle = offset;
    Cycle sleeping_cycle = offset;
    for (const auto* budgets : {&first_budgets, &full_budgets}) {
      naive.set_budgets(*budgets);
      sleeping.set_budgets(*budgets);
      naive_cycle = naive.step_every_cycle(naive_cycle, limit);
      sleeping_cycle = sleeping.run(sleeping_cycle, limit);
      PROP_REQUIRE_MSG(naive_cycle == sleeping_cycle,
                       "per-cycle " << naive_cycle << " sleeping "
                                    << sleeping_cycle);
    }

    for (std::size_t i = 0; i < n; ++i) {
      const CoreStats& a = naive.cores[i]->stats();
      const CoreStats& b = sleeping.cores[i]->stats();
      PROP_REQUIRE_MSG(a == b, "core " << i << ": cycles " << a.cycles
                                       << " vs " << b.cycles << ", stalls "
                                       << a.rob_head_stall_cycles << " vs "
                                       << b.rob_head_stall_cycles
                                       << ", rejects " << a.mshr_reject_cycles
                                       << " vs " << b.mshr_reject_cycles);
      PROP_REQUIRE(naive.cores[i]->finish_cycle() ==
                   sleeping.cores[i]->finish_cycle());
    }
    PROP_REQUIRE(naive.finish == sleeping.finish);
    PROP_REQUIRE(naive.stalls == sleeping.stalls);
    PROP_REQUIRE_MSG(naive.snapshots.size() == sleeping.snapshots.size(),
                     naive.snapshots.size()
                         << " vs " << sleeping.snapshots.size());
    for (std::size_t s = 0; s < naive.snapshots.size(); ++s) {
      PROP_REQUIRE_MSG(naive.snapshots[s] == sleeping.snapshots[s],
                       "snapshot " << s);
    }
    PROP_REQUIRE_MSG(naive.requests.size() == sleeping.requests.size(),
                     naive.requests.size()
                         << " vs " << sleeping.requests.size());
    PROP_REQUIRE(naive.requests == sleeping.requests);
    slept += sleeping.slept;
    slept_beside_a_runner += sleeping.slept_beside_a_runner;
  };
  proptest::Config cfg;
  cfg.seed = 0x5C1F;
  cfg.cases = 150;
  const proptest::Result r =
      proptest::check("sleeping-vs-per-cycle", cfg, prop);
  EXPECT_TRUE(r.ok) << r.message;
  // The property is vacuous unless cores really slept, some of them while
  // another core kept stepping.
  EXPECT_GT(slept, 0u);
  EXPECT_GT(slept_beside_a_runner, 0u);
}

TEST(Core, IdleSkipStopsAtTheCycleLimit) {
  // The head load's data arrives long after the limit, as in a deadlock:
  // per-cycle stepping spins on the stalled head up to the limit; the
  // sleeping core jumps there at once, is charged the same counters and
  // the loop throws the cycle-limit error.
  const Cycle limit = 200'000;
  const std::vector<MicroOp> tape{load(os::kHeapPowBase, 0, /*object=*/5)};
  Fixture naive(tape);
  Fixture sleeping(tape);
  naive.mem_latency = sleeping.mem_latency = cycle_to_ps(1'000'000'000);
  for (Cycle cycle = 0; cycle < limit; ++cycle) {
    naive.events.run_until(cycle_to_ps(cycle));
    naive.core->step();
  }
  // The poll runs once per 4096-cycle block the clock enters, so a clock
  // that jumped over whole blocks (from one DRAM refresh event to the
  // next) polls fewer times than the limit spans blocks.
  Cycle polls = 0;
  EXPECT_THROW((void)run_cores({sleeping.core.get()}, sleeping.events, 0,
                               limit, [&polls] { ++polls; }),
               CheckError);
  EXPECT_LT(polls, limit / 4096);
  EXPECT_EQ(sleeping.core->stats().cycles, limit);
  EXPECT_EQ(sleeping.core->stats(), naive.core->stats());
  EXPECT_GT(naive.core->stats().rob_head_stall_cycles, limit - 1000);
}

TEST(Core, AluBehindRejectedLoadsIssuesInTheSameCycle) {
  // Four loads fill the L1 MSHR file; the fifth, X, is rejected every
  // cycle until memory answers. An ALU chain whose head becomes ready
  // after X sits behind X in the ready queue, so issue must look past the
  // rejected load to start it. The budget ends before X commits, so the
  // run finishes when both the first loads and the chain have committed:
  // just after memory answers if the chain started at once, a chain length
  // later if it waited for a free MSHR.
  constexpr int kMshrs = 4;
  constexpr int kChain = 60;
  ASSERT_EQ(cache::default_l1d().mshrs, static_cast<std::uint32_t>(kMshrs));
  std::vector<MicroOp> script;
  for (int i = 0; i < kMshrs; ++i) {
    script.push_back(load(os::kHeapPowBase + static_cast<std::uint64_t>(i) *
                                                 kLineBytes));
  }
  script.push_back(alu(0, /*latency=*/12));  // the chain head's producer
  for (int i = 0; i < kChain; ++i) script.push_back(alu(/*dep=*/1));
  const std::size_t budget = script.size();
  script.push_back(load(os::kHeapPowBase + kMshrs * kLineBytes));  // X
  CoreParams params;
  params.page_walk_cycles = 0;
  Fixture f(script, params);
  f.core->set_budget(budget);
  f.mem_latency = cycle_to_ps(200);
  f.run();
  script.pop_back();  // the same run with no load to reject
  Fixture free_issue(script, params);
  free_issue.mem_latency = f.mem_latency;
  free_issue.run();
  EXPECT_GT(f.core->stats().mshr_reject_cycles, 100u);
  EXPECT_EQ(free_issue.core->stats().mshr_reject_cycles, 0u);
  EXPECT_EQ(f.core->stats().cycles, free_issue.core->stats().cycles);
}

}  // namespace
}  // namespace moca::cpu
