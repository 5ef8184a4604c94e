// Core model tests: width limits, dependencies, load latency, MLP,
// ROB-head stall accounting, TLB behaviour, idle-cycle skip-ahead.
#include <gtest/gtest.h>

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

TEST(Core, IdleSkipMatchesPerCycleStepping) {
  // Twin cores run one tape: one stepped every cycle, one that takes the
  // skip rule whenever it is idle. Memory latencies off the cycle grid
  // exercise the event-horizon rounding; the skipping twin's clock starts
  // ahead of its core's own cycle count, like a core that sat out part of
  // a run.
  Cycle skipped = 0;
  const proptest::Property prop = [&](proptest::Gen& g) {
    CoreParams params;
    params.in_order = g.chance(0.2);
    params.rob_entries = static_cast<std::uint32_t>(
        g.pick(std::vector<std::uint64_t>{84, 8, 128}));
    params.lq_entries = static_cast<std::uint32_t>(
        g.pick(std::vector<std::uint64_t>{32, 4}));
    params.width = static_cast<std::uint32_t>(g.range(1, 3));
    params.l1_load_ports = static_cast<std::uint32_t>(g.range(1, 2));
    params.page_walk_cycles = static_cast<Cycle>(
        g.pick(std::vector<std::uint64_t>{50, 0, 127}));
    const std::vector<MicroOp> tape = random_tape(g);
    const TimePs latency = static_cast<TimePs>(g.range(1'000, 300'000));
    const Cycle offset = static_cast<Cycle>(g.below(5'000));

    Fixture naive(tape, params);
    Fixture skipping(tape, params);
    naive.mem_latency = skipping.mem_latency = latency;
    StallSums naive_stalls;
    StallSums skip_stalls;
    naive.core->set_stall_observer(add_stalls, &naive_stalls, 0);
    skipping.core->set_stall_observer(add_stalls, &skip_stalls, 0);
    naive.run();

    Core* const cores[] = {skipping.core.get()};
    const Cycle limit = offset + 10'000'000;
    Cycle cycle = offset;
    while (!skipping.core->done()) {
      skipping.events.run_until(cycle_to_ps(cycle));
      skipping.core->step();
      const Cycle next =
          skip_idle_cycles(cores, skipping.events, cycle + 1, limit);
      skipped += next - (cycle + 1);
      cycle = next;
      PROP_REQUIRE(cycle < limit);
    }

    const CoreStats& a = naive.core->stats();
    const CoreStats& b = skipping.core->stats();
    PROP_REQUIRE(a.committed == b.committed);
    PROP_REQUIRE_MSG(a.cycles == b.cycles,
                     "per-cycle " << a.cycles << " skipping " << b.cycles);
    PROP_REQUIRE(a.alu_ops == b.alu_ops);
    PROP_REQUIRE(a.loads == b.loads);
    PROP_REQUIRE(a.stores == b.stores);
    PROP_REQUIRE(a.load_llc_misses == b.load_llc_misses);
    PROP_REQUIRE_MSG(a.rob_head_stall_cycles == b.rob_head_stall_cycles,
                     "per-cycle " << a.rob_head_stall_cycles << " skipping "
                                  << b.rob_head_stall_cycles);
    PROP_REQUIRE(a.tlb_hits == b.tlb_hits);
    PROP_REQUIRE(a.tlb_misses == b.tlb_misses);
    PROP_REQUIRE_MSG(a.mshr_reject_cycles == b.mshr_reject_cycles,
                     "per-cycle " << a.mshr_reject_cycles << " skipping "
                                  << b.mshr_reject_cycles);
    PROP_REQUIRE(naive.core->finish_cycle() == skipping.core->finish_cycle());
    PROP_REQUIRE(naive_stalls == skip_stalls);
  };
  proptest::Config cfg;
  cfg.seed = 0x5C1F;
  cfg.cases = 150;
  const proptest::Result r =
      proptest::check("idle-skip-vs-per-cycle", cfg, prop);
  EXPECT_TRUE(r.ok) << r.message;
  // The property is vacuous unless the skipping twin really jumped.
  EXPECT_GT(skipped, 0);
}

TEST(Core, IdleSkipStopsAtTheCycleLimit) {
  // The head load's data arrives long after the limit, as in a deadlock:
  // per-cycle stepping spins on the stalled head up to the limit, the skip
  // rule jumps there in a few steps and charges the same counters, so the
  // caller's cycle-limit check fails the same way.
  const Cycle limit = 200'000;
  const std::vector<MicroOp> tape{load(os::kHeapPowBase, 0, /*object=*/5)};
  Fixture naive(tape);
  Fixture skipping(tape);
  naive.mem_latency = skipping.mem_latency = cycle_to_ps(1'000'000'000);
  for (Cycle cycle = 0; cycle < limit; ++cycle) {
    naive.events.run_until(cycle_to_ps(cycle));
    naive.core->step();
  }
  Core* const cores[] = {skipping.core.get()};
  Cycle cycle = 0;
  int steps = 0;
  while (cycle < limit) {
    skipping.events.run_until(cycle_to_ps(cycle));
    skipping.core->step();
    ++steps;
    cycle = skip_idle_cycles(cores, skipping.events, cycle + 1, limit);
  }
  EXPECT_EQ(cycle, limit);
  EXPECT_LT(steps, 1000);
  EXPECT_EQ(skipping.core->stats().cycles, limit);
  EXPECT_EQ(skipping.core->stats().cycles, naive.core->stats().cycles);
  EXPECT_GT(naive.core->stats().rob_head_stall_cycles, limit - 1000);
  EXPECT_EQ(skipping.core->stats().rob_head_stall_cycles,
            naive.core->stats().rob_head_stall_cycles);
  EXPECT_EQ(skipping.core->stats().committed, naive.core->stats().committed);
}

}  // namespace
}  // namespace moca::cpu
