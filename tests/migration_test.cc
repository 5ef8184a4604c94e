// Tests for the dynamic page-migration baseline: OS remap mechanics and
// copy traffic, heat tracking, promotion/demotion, and the full-system
// integration.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/event_queue.h"
#include "dram/module.h"
#include "moca/policies.h"
#include "os/migration.h"
#include "os/os.h"
#include "sim/runner.h"

namespace moca::os {
namespace {

struct Fixture {
  EventQueue events;
  std::vector<std::unique_ptr<dram::MemoryModule>> modules;
  PhysicalMemory phys;
  // Power-first base placement so promotion tests start from LPDDR.
  core::HomogeneousPolicy policy{dram::MemKind::kLpddr2};
  std::unique_ptr<Os> os;

  Fixture(std::uint64_t rl_pages = 8, std::uint64_t hbm_mib = 4,
          std::uint64_t lp_mib = 4) {
    add(dram::MemKind::kRldram3, rl_pages * kPageBytes, "rl");
    add(dram::MemKind::kHbm, hbm_mib * MiB, "hbm");
    add(dram::MemKind::kLpddr2, lp_mib * MiB, "lp");
    os = std::make_unique<Os>(phys, policy);
  }
  void add(dram::MemKind kind, std::uint64_t capacity, std::string name) {
    modules.push_back(std::make_unique<dram::MemoryModule>(
        dram::make_device(kind), capacity, 1, events, std::move(name)));
    phys.add_module(modules.back().get());
  }
};

TEST(OsRemap, MovesMappingAndFreesOldFrame) {
  Fixture f;
  const ProcessId pid = f.os->create_process();
  const auto first = f.os->translate(pid, kHeapPowBase);
  const std::uint32_t original =
      f.phys.locate(first.paddr).module_index;
  const std::uint32_t target = original == 0 ? 2 : 0;

  const auto remap =
      f.os->try_remap(pid, kHeapPowBase >> kPageShift, target);
  ASSERT_TRUE(remap.has_value());
  const auto after = f.os->translate(pid, kHeapPowBase + 64);
  EXPECT_FALSE(after.page_fault);
  EXPECT_EQ(f.phys.locate(after.paddr).module_index, target);
  // The old frame is reusable.
  EXPECT_EQ(f.phys.allocator(original).used_frames() + 1,
            f.os->stats().frames_per_module[original] + 1);
}

TEST(OsRemap, IssuesPageCopyTraffic) {
  Fixture f;
  const ProcessId pid = f.os->create_process();
  (void)f.os->translate(pid, kHeapPowBase);  // lands in LPDDR2 (module 2)
  ASSERT_TRUE(f.os->try_remap(pid, kHeapPowBase >> kPageShift, 0));
  f.events.run_until(1'000'000'000);
  // Every line of the page: read from the old frame, written to the new.
  constexpr std::uint64_t kLines = kPageBytes / kLineBytes;
  EXPECT_EQ(f.phys.module(2).stats().reads, kLines);
  EXPECT_EQ(f.phys.module(2).stats().writes, 0u);
  EXPECT_EQ(f.phys.module(0).stats().writes, kLines);
  EXPECT_EQ(f.phys.module(0).stats().reads, 0u);
}

TEST(OsRemap, FailsWhenTargetFull) {
  Fixture f(/*rl_pages=*/1);
  const ProcessId pid = f.os->create_process();
  (void)f.os->translate(pid, kHeapPowBase);            // some module
  (void)f.phys.try_allocate(0);                        // fill tiny RLDRAM
  EXPECT_FALSE(
      f.os->try_remap(pid, kHeapPowBase >> kPageShift, 0).has_value());
}

TEST(OsRemap, UnmappedPageThrows) {
  Fixture f;
  const ProcessId pid = f.os->create_process();
  EXPECT_THROW((void)f.os->try_remap(pid, 0x1234, 0), CheckError);
}

TEST(Migrator, PromotesHotPagesToRldram) {
  Fixture f(/*rl_pages=*/16);
  const ProcessId pid = f.os->create_process();
  // Touch 4 pages; heat one of them.
  for (int p = 0; p < 4; ++p) {
    (void)f.os->translate(pid, kHeapPowBase + p * kPageBytes);
  }
  MigrationConfig config;
  config.hot_threshold = 4;
  PageMigrator migrator(*f.os, config);

  for (int i = 0; i < 10; ++i) migrator.record_miss(pid, kHeapPowBase);
  migrator.record_miss(pid, kHeapPowBase + kPageBytes);  // cold: 1 miss
  EXPECT_TRUE(migrator.run_epoch());  // a page moved: TLBs need a flush

  EXPECT_EQ(migrator.stats().promotions, 1u);
  EXPECT_EQ(migrator.stats().copied_lines, kPageBytes / kLineBytes);
  const auto hot = f.os->translate(pid, kHeapPowBase);
  EXPECT_EQ(f.phys.module(f.phys.locate(hot.paddr).module_index).kind(),
            dram::MemKind::kRldram3);
  const auto cold = f.os->translate(pid, kHeapPowBase + kPageBytes);
  EXPECT_NE(f.phys.module(f.phys.locate(cold.paddr).module_index).kind(),
            dram::MemKind::kRldram3);

  // Next epoch only the cold page misses, below the threshold: nothing
  // moves, so no copy and no shootdown are owed.
  migrator.record_miss(pid, kHeapPowBase + kPageBytes);
  EXPECT_FALSE(migrator.run_epoch());
  EXPECT_EQ(migrator.stats().copied_lines, kPageBytes / kLineBytes);
}

TEST(Migrator, AlreadyFastPagesAreLeftAlone) {
  Fixture f;
  const ProcessId pid = f.os->create_process();
  (void)f.os->translate(pid, kHeapPowBase);
  MigrationConfig config;
  config.hot_threshold = 1;
  PageMigrator migrator(*f.os, config);
  for (int i = 0; i < 5; ++i) migrator.record_miss(pid, kHeapPowBase);
  EXPECT_TRUE(migrator.run_epoch());
  const std::uint64_t first = migrator.stats().promotions;
  for (int i = 0; i < 5; ++i) migrator.record_miss(pid, kHeapPowBase);
  EXPECT_FALSE(migrator.run_epoch());
  EXPECT_EQ(migrator.stats().promotions, first);  // no re-promotion
}

TEST(Migrator, DemotesOldestWhenFastMemoryFull) {
  Fixture f(/*rl_pages=*/2, /*hbm_mib=*/0 + 1, /*lp_mib=*/4);
  // Make HBM tiny too so promotion pressure hits the demotion path: use
  // 1 MiB HBM (256 pages) but fill it up front.
  const ProcessId pid = f.os->create_process();
  for (int p = 0; p < 8; ++p) {
    (void)f.os->translate(pid, kHeapPowBase + p * kPageBytes);
  }
  while (f.phys.try_allocate(1).has_value()) {
  }  // exhaust HBM
  MigrationConfig config;
  config.hot_threshold = 2;
  PageMigrator migrator(*f.os, config);
  // Promote pages 0,1 (fill 2-page RLDRAM), then hotter pages 2,3.
  for (int p = 0; p < 2; ++p) {
    for (int i = 0; i < 4; ++i) {
      migrator.record_miss(pid, kHeapPowBase + p * kPageBytes);
    }
  }
  EXPECT_TRUE(migrator.run_epoch());
  EXPECT_EQ(migrator.stats().promotions, 2u);
  for (int p = 2; p < 4; ++p) {
    for (int i = 0; i < 8; ++i) {
      migrator.record_miss(pid, kHeapPowBase + p * kPageBytes);
    }
  }
  EXPECT_TRUE(migrator.run_epoch());
  EXPECT_EQ(migrator.stats().promotions, 4u);
  EXPECT_EQ(migrator.stats().demotions, 2u);
  // Pages 2,3 now occupy RLDRAM; 0,1 were demoted to a slow module.
  for (int p = 2; p < 4; ++p) {
    const auto tr = f.os->translate(pid, kHeapPowBase + p * kPageBytes);
    EXPECT_EQ(f.phys.module(f.phys.locate(tr.paddr).module_index).kind(),
              dram::MemKind::kRldram3);
  }
  for (int p = 0; p < 2; ++p) {
    const auto tr = f.os->translate(pid, kHeapPowBase + p * kPageBytes);
    EXPECT_EQ(f.phys.module(f.phys.locate(tr.paddr).module_index).kind(),
              dram::MemKind::kLpddr2);
  }
}

TEST(Migrator, HeatResetsEachEpoch) {
  Fixture f;
  const ProcessId pid = f.os->create_process();
  (void)f.os->translate(pid, kHeapPowBase);
  MigrationConfig config;
  config.hot_threshold = 6;
  PageMigrator migrator(*f.os, config);
  // 4 misses per epoch, threshold 6: never promotes.
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (int i = 0; i < 4; ++i) migrator.record_miss(pid, kHeapPowBase);
    EXPECT_FALSE(migrator.run_epoch());
  }
  EXPECT_EQ(migrator.stats().promotions, 0u);
  EXPECT_EQ(migrator.stats().epochs, 5u);
  EXPECT_EQ(migrator.tracked_pages(), 0u);
}

TEST(InterleavedPolicy, SpreadsAcrossPoolAndAvoidsRldram) {
  core::InterleavedPolicy policy;
  int first_lp = 0, first_hbm = 0, first_rl = 0, first_ddr3 = 0;
  for (int i = 0; i < 600; ++i) {
    PreferenceChain chain;
    policy.preference(PageContext{}, chain);
    ASSERT_FALSE(chain.empty());
    switch (chain.front()) {
      case dram::MemKind::kLpddr2:
        ++first_lp;
        break;
      case dram::MemKind::kHbm:
        ++first_hbm;
        break;
      case dram::MemKind::kDdr3:
      case dram::MemKind::kDdr4:
        ++first_ddr3;
        break;
      case dram::MemKind::kRldram3:
        ++first_rl;
        break;
    }
    // RLDRAM is only ever the last resort.
    EXPECT_EQ(chain.back(), dram::MemKind::kRldram3);
  }
  EXPECT_EQ(first_rl, 0);
  EXPECT_EQ(first_hbm, 300);  // bandwidth-weighted: HBM half the pool
  EXPECT_EQ(first_lp, 100);
  EXPECT_EQ(first_ddr3, 200);
}

TEST(MigrationIntegration, FullRunPromotesAndStaysCorrect) {
  sim::Experiment e;
  e.instructions = 150'000;
  MigrationConfig config;
  config.epoch_cycles = 20'000;
  config.hot_threshold = 3;
  const sim::RunResult r =
      sim::run_workload_with_migration({"mcf"}, e, config);
  EXPECT_EQ(r.cores[0].core.committed, e.instructions);
  EXPECT_GT(r.migration.epochs, 3u);
  EXPECT_GT(r.migration.promotions, 0u);
  EXPECT_EQ(r.migration.copied_lines,
            (r.migration.promotions + r.migration.demotions) * 64);
  // Promoted frames live in RLDRAM.
  EXPECT_GT(r.os_stats.frames_per_module[0], 0u);
}

TEST(MigrationIntegration, DeterministicAcrossRuns) {
  sim::Experiment e;
  e.instructions = 100'000;
  MigrationConfig config;
  const sim::RunResult a =
      sim::run_workload_with_migration({"milc"}, e, config);
  const sim::RunResult b =
      sim::run_workload_with_migration({"milc"}, e, config);
  EXPECT_EQ(a.exec_time, b.exec_time);
  EXPECT_EQ(a.migration.promotions, b.migration.promotions);
  EXPECT_EQ(a.total_mem_access_time, b.total_mem_access_time);
}

}  // namespace
}  // namespace moca::os
