// Phase-adaptive reclassification engine: windowed threshold function,
// spec parsing, hysteresis (margin dead band + residency), incremental
// placement under the page budget, report integration, and worker-count
// determinism of full-system runs with the engine on.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/event_queue.h"
#include "dram/module.h"
#include "moca/adaptive.h"
#include "moca/policies.h"
#include "os/os.h"
#include "sim/report.h"
#include "sim/sweep.h"

namespace moca {
namespace {

using core::AdaptiveConfig;
using core::AdaptiveEngine;
using core::classify_windowed;
using core::parse_adaptive_spec;
using core::Thresholds;
using os::MemClass;

// ---------------------------------------------------------------------------
// classify_windowed

TEST(ClassifyWindowed, MarginZeroMatchesOfflineClassifier) {
  const Thresholds t;  // 1.0 / 20.0
  // Below Thr_Lat -> N regardless of where the object currently sits.
  for (const MemClass cur :
       {MemClass::kNonIntensive, MemClass::kLatency, MemClass::kBandwidth}) {
    EXPECT_EQ(classify_windowed(0.5, 100.0, cur, t, 0.0),
              MemClass::kNonIntensive);
  }
  // Intensive: stall/miss splits L from B at Thr_BW.
  for (const MemClass cur :
       {MemClass::kNonIntensive, MemClass::kLatency, MemClass::kBandwidth}) {
    EXPECT_EQ(classify_windowed(10.0, 25.0, cur, t, 0.0),
              MemClass::kLatency);
    EXPECT_EQ(classify_windowed(10.0, 5.0, cur, t, 0.0),
              MemClass::kBandwidth);
  }
}

TEST(ClassifyWindowed, MarginWidensEveryExitThreshold) {
  const Thresholds t;
  const double m = 0.25;
  // N holds until mpki crosses Thr_Lat * 1.25.
  EXPECT_EQ(classify_windowed(1.1, 25.0, MemClass::kNonIntensive, t, m),
            MemClass::kNonIntensive);
  EXPECT_EQ(classify_windowed(1.3, 25.0, MemClass::kNonIntensive, t, m),
            MemClass::kLatency);
  // L holds down to Thr_Lat * 0.75 / Thr_BW * 0.75.
  EXPECT_EQ(classify_windowed(0.8, 25.0, MemClass::kLatency, t, m),
            MemClass::kLatency);
  EXPECT_EQ(classify_windowed(0.7, 25.0, MemClass::kLatency, t, m),
            MemClass::kNonIntensive);
  EXPECT_EQ(classify_windowed(10.0, 16.0, MemClass::kLatency, t, m),
            MemClass::kLatency);
  EXPECT_EQ(classify_windowed(10.0, 14.0, MemClass::kLatency, t, m),
            MemClass::kBandwidth);
  // B holds up to Thr_BW * 1.25.
  EXPECT_EQ(classify_windowed(10.0, 24.0, MemClass::kBandwidth, t, m),
            MemClass::kBandwidth);
  EXPECT_EQ(classify_windowed(10.0, 26.0, MemClass::kBandwidth, t, m),
            MemClass::kLatency);
}

// ---------------------------------------------------------------------------
// parse_adaptive_spec

TEST(ParseAdaptiveSpec, OnOffAndDefaults) {
  for (const char* on : {"on", "1", "default"}) {
    const auto config = parse_adaptive_spec(on);
    ASSERT_TRUE(config.has_value()) << on;
    EXPECT_EQ(config->epoch_cycles, AdaptiveConfig{}.epoch_cycles);
    EXPECT_EQ(config->window_epochs, AdaptiveConfig{}.window_epochs);
  }
  EXPECT_FALSE(parse_adaptive_spec("off").has_value());
  EXPECT_FALSE(parse_adaptive_spec("0").has_value());
}

TEST(ParseAdaptiveSpec, KeyValueOverrides) {
  // 8 pages per 12,500 cycles is exactly the 32-per-50,000 copy rate.
  const auto config = parse_adaptive_spec(
      "epoch=12500,window=2,residency=1,margin=0.1,max-moves=2,"
      "max-pages=8,min-misses=4,thr-lat=2,thr-bw=10");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->epoch_cycles, 12500);
  EXPECT_EQ(config->window_epochs, 2u);
  EXPECT_EQ(config->min_residency_epochs, 1u);
  EXPECT_DOUBLE_EQ(config->reclass_margin, 0.1);
  EXPECT_EQ(config->max_object_moves_per_epoch, 2u);
  EXPECT_EQ(config->max_pages_per_epoch, 8u);
  EXPECT_EQ(config->min_window_misses, 4u);
  EXPECT_DOUBLE_EQ(config->thresholds.thr_lat, 2.0);
  EXPECT_DOUBLE_EQ(config->thresholds.thr_bw, 10.0);
}

TEST(ParseAdaptiveSpec, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "bogus=1", "epoch", "epoch=", "epoch=0", "epoch=abc",
        "epoch=-5", "window=0", "margin=1.5", "margin=-0.1", "max-moves=0",
        "max-pages=0", "thr-lat=0", "thr-bw=0", "=3", "epoch=5,,window=2"}) {
    EXPECT_THROW((void)parse_adaptive_spec(bad), CheckError)
        << "accepted spec '" << bad << "'";
  }
}

TEST(ParseAdaptiveSpec, RejectsPageBudgetsOverTheCopyRate) {
  // The stability rule is a rate, 32 page copies per 50,000 cycles: a
  // shorter epoch must shrink max-pages with it.
  for (const char* over :
       {"epoch=20000", "epoch=12499,max-pages=8", "epoch=20000,max-pages=13",
        "epoch=1000,max-pages=1", "max-pages=33"}) {
    try {
      (void)parse_adaptive_spec(over);
      ADD_FAILURE() << "accepted over-rate spec '" << over << "'";
    } catch (const CheckError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("max-pages="), std::string::npos) << message;
      EXPECT_NE(message.find("epoch="), std::string::npos) << message;
    }
  }
  for (const char* ok :
       {"epoch=5000,max-pages=3", "epoch=20000,max-pages=12",
        "epoch=100000,max-pages=64", "epoch=50000"}) {
    EXPECT_NO_THROW((void)parse_adaptive_spec(ok)) << ok;
  }
}

TEST(ParseAdaptiveSpec, RejectsNumbersThatDoNotFit) {
  // Regression: the 32-bit keys were truncated (max-pages=4294967297 ran
  // as 1, residency=4294967296 as 0, and a 0 budget died in the engine's
  // constructor after the profiling stage), an epoch past INT64_MAX went
  // negative, an epoch whose picosecond length overflows scheduled "into
  // the past", and values past strtoull's range were taken as its max.
  using Case = std::pair<const char*, const char*>;  // spec, key named
  for (const auto& [spec, key] : std::vector<Case>{
           {"max-pages=4294967297,epoch=60000", "max-pages"},
           {"max-pages=4294967296", "max-pages"},
           {"max-moves=4294967296", "max-moves"},
           {"window=4294967296", "window"},
           {"residency=4294967296", "residency"},
           {"epoch=9223372036854775808", "epoch"},
           {"epoch=10000000000000000", "epoch"},
           {"epoch=9223372036854776", "epoch"},
           {"epoch=18446744073709551616", "epoch"},
           {"min-misses=18446744073709551616", "min-misses"}}) {
    try {
      (void)parse_adaptive_spec(spec);
      ADD_FAILURE() << "accepted spec '" << spec << "'";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << spec << ": " << e.what();
    }
  }
  // The largest values that fit still parse.
  const auto config = parse_adaptive_spec(
      "epoch=9223372036854775,residency=4294967295,window=4294967295,"
      "max-moves=4294967295,min-misses=18446744073709551615");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->epoch_cycles, kMaxCyclesInPs);
  EXPECT_EQ(config->min_residency_epochs, 4294967295u);
  EXPECT_EQ(config->window_epochs, 4294967295u);
  EXPECT_EQ(config->max_object_moves_per_epoch, 4294967295u);
  EXPECT_EQ(config->min_window_misses, 18446744073709551615u);
}

// ---------------------------------------------------------------------------
// AdaptiveEngine, driven directly (no cores): the fixture owns a tiny
// heterogeneous machine and feeds attributed heat by hand, so phases are
// exact and every decision epoch is scripted.

struct EngineFixture {
  EventQueue events;
  std::vector<std::unique_ptr<dram::MemoryModule>> modules;
  os::PhysicalMemory phys;
  // Power-first base placement: everything starts in LPDDR2, the home
  // kind of class N, so promotions have somewhere to go.
  core::HomogeneousPolicy policy{dram::MemKind::kLpddr2};
  std::unique_ptr<os::Os> os;
  core::ObjectRegistry registry;
  os::ProcessId pid = 0;
  std::uint64_t instructions_per_epoch = 10'000;
  std::uint64_t total_instructions = 0;

  EngineFixture() {
    add(dram::MemKind::kRldram3, 64 * kPageBytes, "rl");
    add(dram::MemKind::kHbm, 4 * MiB, "hbm");
    add(dram::MemKind::kLpddr2, 4 * MiB, "lp");
    os = std::make_unique<os::Os>(phys, policy);
    pid = os->create_process();
  }

  void add(dram::MemKind kind, std::uint64_t capacity, std::string name) {
    modules.push_back(std::make_unique<dram::MemoryModule>(
        dram::make_device(kind), capacity, 1, events, std::move(name)));
    phys.add_module(modules.back().get());
  }

  /// Registers a pages-sized object in the N heap partition and faults
  /// every page in (all land in LPDDR2 under the homogeneous policy).
  std::uint64_t make_object(std::uint64_t pages,
                            std::uint64_t page_offset = 0) {
    const os::VirtAddr base =
        os::kHeapPowBase + page_offset * kPageBytes;
    const std::uint64_t id =
        registry.add(/*name=*/id_counter++, pid, base, pages * kPageBytes,
                     MemClass::kNonIntensive, "obj");
    for (std::uint64_t p = 0; p < pages; ++p) {
      (void)os->translate(pid, base + p * kPageBytes);
    }
    return id;
  }

  AdaptiveEngine make_engine(AdaptiveConfig config) {
    AdaptiveEngine engine(*os, registry, config);
    engine.set_instruction_source(
        [this](os::ProcessId) { return total_instructions; });
    return engine;
  }

  /// One epoch of attributed heat: `misses` demand load misses, each
  /// stalling the ROB head for `stall_per_miss` cycles.
  void feed(AdaptiveEngine& engine, std::uint64_t object,
            std::uint64_t misses, std::uint64_t stall_per_miss) {
    for (std::uint64_t i = 0; i < misses; ++i) {
      engine.record_miss(pid, object, /*is_load=*/true);
      engine.record_stall(pid, object, stall_per_miss);
    }
  }

  /// Returns run_epoch's verdict: true when a page moved.
  bool close_epoch(AdaptiveEngine& engine) {
    total_instructions += instructions_per_epoch;
    return engine.run_epoch();
  }

  /// DRAM kind currently backing the object's first page.
  dram::MemKind kind_of(std::uint64_t object) {
    const os::VirtAddr base = registry.instance(object).base;
    const auto result = os->translate(pid, base);
    return phys.module(phys.locate(result.paddr).module_index).kind();
  }

  std::uint64_t id_counter = 1;
};

TEST(AdaptiveEngine, PhaseChangePromotesThenDemotesWithoutPingPong) {
  EngineFixture f;
  const std::uint64_t obj = f.make_object(/*pages=*/4);
  AdaptiveConfig config;
  config.window_epochs = 2;
  config.min_residency_epochs = 2;
  AdaptiveEngine engine = f.make_engine(config);
  ASSERT_EQ(f.kind_of(obj), dram::MemKind::kLpddr2);

  // Hot latency-bound phase: 200 load misses/epoch at 25 stall cycles per
  // miss -> windowed mpki 20, stall/miss 25 -> class L. The first epoch
  // cannot decide (window not yet full)...
  f.feed(engine, obj, 200, 25);
  f.close_epoch(engine);
  EXPECT_EQ(engine.stats().object_promotions, 0u);
  EXPECT_EQ(engine.current_class(obj), MemClass::kNonIntensive);
  // ...the second can: whole object promoted N -> L, onto RLDRAM.
  f.feed(engine, obj, 200, 25);
  f.close_epoch(engine);
  EXPECT_EQ(engine.stats().object_promotions, 1u);
  EXPECT_EQ(engine.stats().moved_pages, 4u);
  EXPECT_EQ(engine.current_class(obj), MemClass::kLatency);
  EXPECT_EQ(f.kind_of(obj), dram::MemKind::kRldram3);

  // Sustained phase: the decision is stable, nothing moves again.
  for (int e = 0; e < 6; ++e) {
    f.feed(engine, obj, 200, 25);
    f.close_epoch(engine);
  }
  EXPECT_EQ(engine.stats().object_promotions, 1u);
  EXPECT_EQ(engine.stats().reclassifications, 1u);

  // Phase ends: the object goes silent, the window drains, and the engine
  // demotes it back to LPDDR2 — long after the move, so the ping-pong
  // detector stays at zero.
  for (int e = 0; e < 4; ++e) f.close_epoch(engine);
  EXPECT_EQ(engine.stats().object_demotions, 1u);
  EXPECT_EQ(engine.current_class(obj), MemClass::kNonIntensive);
  EXPECT_EQ(f.kind_of(obj), dram::MemKind::kLpddr2);
  EXPECT_EQ(engine.stats().ping_pong_moves, 0u);
  EXPECT_EQ(engine.stats().moved_pages, 8u);
  // Copy traffic bookkeeping: every moved page is a full page of lines.
  EXPECT_EQ(engine.stats().copied_lines,
            8u * (kPageBytes / kLineBytes));
}

TEST(AdaptiveEngine, ResidencyGuardSuppressesFastFlips) {
  EngineFixture f;
  const std::uint64_t obj = f.make_object(/*pages=*/2);
  AdaptiveConfig config;
  config.window_epochs = 1;
  config.min_residency_epochs = 3;
  config.reclass_margin = 0.0;
  AdaptiveEngine engine = f.make_engine(config);

  // Epoch 1: hot -> immediate promotion (window of one epoch).
  f.feed(engine, obj, 200, 25);
  f.close_epoch(engine);
  ASSERT_EQ(engine.stats().object_promotions, 1u);

  // Epochs 2-3: silent. The raw decision says demote; residency forbids.
  f.close_epoch(engine);
  f.close_epoch(engine);
  EXPECT_EQ(engine.stats().hysteresis_residency, 2u);
  EXPECT_EQ(engine.current_class(obj), MemClass::kLatency);

  // Epoch 4: residency satisfied -> demotion goes through, and because it
  // returns the object to its previous class this quickly, the ping-pong
  // detector flags exactly the thrash hysteresis exists to bound.
  f.close_epoch(engine);
  EXPECT_EQ(engine.stats().object_demotions, 1u);
  EXPECT_EQ(engine.stats().ping_pong_moves, 1u);
}

TEST(AdaptiveEngine, MarginDeadBandHoldsBorderlineObject) {
  EngineFixture f;
  const std::uint64_t obj = f.make_object(/*pages=*/2);
  AdaptiveConfig config;
  config.window_epochs = 1;
  config.reclass_margin = 0.25;
  config.min_window_misses = 0;
  AdaptiveEngine engine = f.make_engine(config);

  // mpki 1.1: past Thr_Lat (the raw classifier would move it out of N) but
  // inside the 25% dead band -> held in place, counted each epoch.
  for (int e = 0; e < 3; ++e) {
    f.feed(engine, obj, 11, 25);
    f.close_epoch(engine);
  }
  EXPECT_EQ(engine.stats().hysteresis_margin, 3u);
  EXPECT_EQ(engine.stats().reclassifications, 0u);
  EXPECT_EQ(engine.current_class(obj), MemClass::kNonIntensive);
}

TEST(AdaptiveEngine, PromotionRequiresWindowedMissEvidence) {
  EngineFixture f;
  const std::uint64_t obj = f.make_object(/*pages=*/2);
  AdaptiveConfig config;
  config.window_epochs = 1;
  config.min_window_misses = 1000;
  AdaptiveEngine engine = f.make_engine(config);

  // Latency-bound by ratio, but only 100 windowed misses: too little
  // evidence to pay for a promotion.
  f.feed(engine, obj, 100, 25);
  f.close_epoch(engine);
  EXPECT_EQ(engine.stats().object_promotions, 0u);
  EXPECT_EQ(engine.stats().reclassifications, 0u);
  EXPECT_EQ(engine.current_class(obj), MemClass::kNonIntensive);
}

TEST(AdaptiveEngine, PlacementIsIncrementalUnderPageBudget) {
  EngineFixture f;
  const std::uint64_t obj = f.make_object(/*pages=*/5);
  AdaptiveConfig config;
  config.window_epochs = 1;
  config.max_pages_per_epoch = 2;
  AdaptiveEngine engine = f.make_engine(config);

  // One decision, three epochs of placement work: 2 + 2 + 1 pages, then
  // an epoch that moves nothing.
  f.feed(engine, obj, 200, 25);
  EXPECT_TRUE(f.close_epoch(engine));
  EXPECT_EQ(engine.stats().reclassifications, 1u);
  EXPECT_EQ(engine.stats().moved_pages, 2u);
  for (const auto& [expected, moved] :
       {std::pair{4u, true}, std::pair{5u, true}, std::pair{5u, false}}) {
    f.feed(engine, obj, 200, 25);  // phase persists; decision is stable
    EXPECT_EQ(f.close_epoch(engine), moved);
    EXPECT_EQ(engine.stats().moved_pages, expected);
  }
  EXPECT_EQ(engine.stats().copied_lines, 5 * kPageBytes / kLineBytes);
  EXPECT_EQ(engine.stats().reclassifications, 1u);
  // Every page ended up on the L chain's first kind.
  for (std::uint64_t p = 0; p < 5; ++p) {
    const os::VirtAddr addr =
        f.registry.instance(obj).base + p * kPageBytes;
    const auto result = f.os->translate(f.pid, addr);
    EXPECT_EQ(f.phys.module(f.phys.locate(result.paddr).module_index)
                  .kind(),
              dram::MemKind::kRldram3);
  }
}

TEST(AdaptiveEngine, IgnoresNonObjectTraffic) {
  EngineFixture f;
  AdaptiveConfig config;
  config.window_epochs = 1;
  AdaptiveEngine engine = f.make_engine(config);
  // kNoObject-attributed misses (stack/code) must not create state.
  engine.record_miss(f.pid, ~std::uint64_t{0}, true);
  engine.record_stall(f.pid, ~std::uint64_t{0}, 1);
  f.close_epoch(engine);
  EXPECT_EQ(engine.tracked_objects(), 0u);
  EXPECT_EQ(engine.stats().reclassifications, 0u);
}

// ---------------------------------------------------------------------------
// Report integration

TEST(AdaptiveReport, BlockAppearsOnlyWhenEngineRan) {
  sim::RunResult off;
  EXPECT_EQ(sim::to_json(off).find("\"adaptive\""), std::string::npos);

  sim::RunResult on;
  on.adaptive.epochs = 3;
  on.adaptive.object_promotions = 2;
  const std::string json = sim::to_json(on);
  EXPECT_NE(json.find("\"adaptive\""), std::string::npos);
  EXPECT_NE(json.find("\"object_promotions\":2"), std::string::npos);
  EXPECT_NE(json.find("\"ping_pong_moves\":0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Full-system determinism: with the engine on, sweep results must stay
// byte-identical for any worker count (the engine is per-System state, so
// parallel jobs cannot observe each other).

TEST(AdaptiveDeterminism, WorkerCountInvariantWithEngineOn) {
  sim::Experiment e;
  e.instructions = 60'000;
  e.adaptive =
      parse_adaptive_spec("epoch=20000,window=2,residency=2,max-pages=12");

  std::vector<sim::SweepJob> jobs;
  for (const char* app : {"gcc", "disparity"}) {
    sim::SweepJob job;
    job.apps = {app};
    job.choice = sim::SystemChoice::kMoca;
    job.experiment = e;
    job.label = app;
    jobs.push_back(std::move(job));
  }

  sim::SweepRunner seq(1);
  const auto db = sim::build_profile_db({"gcc", "disparity"}, e, seq);
  const std::vector<sim::SweepOutcome> base = seq.run(jobs, db);
  ASSERT_EQ(base.size(), jobs.size());
  std::vector<std::string> base_json;
  for (const sim::SweepOutcome& o : base) {
    ASSERT_TRUE(o.ok) << o.error;
    // The engine must actually have run for this to test anything.
    EXPECT_GT(o.result.adaptive.epochs, 0u);
    base_json.push_back(sim::to_json(o.result));
  }

  sim::SweepRunner par(4);
  const std::vector<sim::SweepOutcome> got = par.run(jobs, db);
  ASSERT_EQ(got.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    ASSERT_TRUE(got[i].ok) << got[i].error;
    EXPECT_EQ(sim::to_json(got[i].result), base_json[i])
        << "worker-count-dependent adaptive result for job " << i;
  }
}

}  // namespace
}  // namespace moca
