// Robustness and failure-injection tests: corrupted inputs must raise
// CheckError (never crash or silently succeed), process teardown reclaims
// frames, and degenerate configurations behave.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "dram/module.h"
#include "moca/policies.h"
#include "moca/profile.h"
#include "os/auditor.h"
#include "os/os.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "sim/supervisor.h"
#include "sim/sweep.h"
#include "trace/record.h"
#include "trace/trace.h"
#include "workload/parse.h"
#include "workload/suite.h"

namespace moca {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Fuzz, ProfileDeserializeSurvivesCorruption) {
  // Start from a valid profile and corrupt it in random ways; every
  // attempt must either parse or throw CheckError — never crash.
  core::AppProfile p;
  p.app_name = "x";
  p.instructions = 1000;
  core::ObjectProfile o;
  o.name = 7;
  o.label = "obj";
  p.objects[7] = o;
  const std::string valid = p.serialize();

  Rng rng(123);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupted = valid;
    const int edits = 1 + static_cast<int>(rng.next_below(4));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = rng.next_below(corrupted.size());
      switch (rng.next_below(3)) {
        case 0:
          corrupted[pos] = static_cast<char>('!' + rng.next_below(90));
          break;
        case 1:
          corrupted.erase(pos, 1);
          break;
        default:
          corrupted.insert(pos, 1,
                           static_cast<char>('0' + rng.next_below(10)));
          break;
      }
    }
    try {
      const core::AppProfile q = core::AppProfile::deserialize(corrupted);
      ++parsed;  // some corruptions remain syntactically valid
    } catch (const CheckError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(parsed + rejected, 300);
  EXPECT_GT(rejected, 0);
}

TEST(Fuzz, TraceReaderSurvivesCorruption) {
  const std::string path = temp_path("moca_fuzz_trace.trc");
  {
    trace::RecordOptions options;
    options.ops = 500;
    (void)trace::record_app_trace(workload::app_by_name("gcc"), path,
                                  options);
  }
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  Rng rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    std::string corrupted = bytes;
    // Truncate and/or flip bytes.
    if (rng.next_bool(0.5) && corrupted.size() > 20) {
      corrupted.resize(20 + rng.next_below(corrupted.size() - 20));
    }
    for (int flips = 0; flips < 3; ++flips) {
      corrupted[rng.next_below(corrupted.size())] ^=
          static_cast<char>(1 + rng.next_below(255));
    }
    const std::string fuzz_path = temp_path("moca_fuzz_trace_mut.trc");
    {
      std::ofstream out(fuzz_path, std::ios::binary | std::ios::trunc);
      out << corrupted;
    }
    try {
      trace::TraceReader reader(fuzz_path);
      cpu::MicroOp op;
      std::uint64_t n = 0;
      while (reader.next(op) && n < 100'000) ++n;  // must terminate
    } catch (const CheckError&) {
      // rejected: fine
    }
    std::remove(fuzz_path.c_str());
  }
  std::remove(path.c_str());
  SUCCEED();
}

TEST(Teardown, DestroyProcessReclaimsEveryFrame) {
  EventQueue events;
  dram::MemoryModule module(dram::make_ddr3(), 16 * MiB, 1, events, "m");
  os::PhysicalMemory phys;
  phys.add_module(&module);
  core::HomogeneousPolicy policy(dram::MemKind::kDdr3);
  os::Os os(phys, policy);

  const os::ProcessId a = os.create_process();
  const os::ProcessId b = os.create_process();
  for (int p = 0; p < 100; ++p) {
    (void)os.translate(a, os::kHeapPowBase + p * kPageBytes);
    (void)os.translate(b, os::kHeapPowBase + p * kPageBytes);
  }
  EXPECT_EQ(phys.allocator(0).used_frames(), 200u);

  os.destroy_process(a);
  EXPECT_EQ(phys.allocator(0).used_frames(), 100u);
  EXPECT_EQ(os.stats().frames_per_module[0], 100u);
  EXPECT_FALSE(os.process_alive(a));
  EXPECT_TRUE(os.process_alive(b));
  EXPECT_THROW((void)os.translate(a, os::kHeapPowBase), CheckError);
  EXPECT_THROW(os.destroy_process(a), CheckError);

  // The freed frames are reusable by the survivor.
  for (int p = 100; p < 200; ++p) {
    (void)os.translate(b, os::kHeapPowBase + p * kPageBytes);
  }
  EXPECT_EQ(phys.allocator(0).used_frames(), 200u);
}

TEST(Degenerate, SingleModuleMachineWorksUnderEveryPolicy) {
  // MOCA on a DDR3-only machine: every chain falls through to DDR3.
  sim::Experiment e;
  e.instructions = 80'000;
  const auto db = sim::build_profile_db({"disparity"}, e);

  sim::SystemOptions options;
  options.instructions_per_core = e.instructions;
  sim::AppInstance inst;
  inst.spec = workload::app_by_name("disparity");
  inst.classes = db.at("disparity");
  std::vector<sim::AppInstance> instances;
  instances.push_back(std::move(inst));
  sim::System system(sim::homogeneous(dram::MemKind::kDdr3),
                     std::make_unique<core::MocaPolicy>(),
                     std::move(instances), options);
  const sim::RunResult r = system.run();
  EXPECT_EQ(r.cores[0].core.committed, e.instructions);
  EXPECT_EQ(r.os_stats.last_resort_allocations, 0u);  // chain reaches DDR3
}

TEST(Degenerate, KnlTwoTierChainsDegradeGracefully) {
  sim::Experiment e;
  e.instructions = 120'000;
  const auto db = sim::build_profile_db({"disparity"}, e);
  sim::SystemOptions options;
  options.instructions_per_core = e.instructions;
  sim::AppInstance inst;
  inst.spec = workload::app_by_name("disparity");
  inst.classes = db.at("disparity");
  std::vector<sim::AppInstance> instances;
  instances.push_back(std::move(inst));
  sim::System system(sim::knl_like(), std::make_unique<core::MocaPolicy>(),
                     std::move(instances), options);
  const sim::RunResult r = system.run();
  // Latency objects land in HBM (no RLDRAM), non-intensive in DDR3 (no
  // LPDDR).
  EXPECT_GT(r.os_stats.frames_per_module[1], 0u);
  EXPECT_GT(r.os_stats.frames_per_module[0], 0u);
  EXPECT_EQ(r.os_stats.last_resort_allocations, 0u);
}

TEST(FallbackChain, LatencyChainWalksDocumentedOrderUnderExhaustion) {
  // Tiny heterogeneous machine: 4 frames per module, registered in the
  // priority order of the latency chain (RLDRAM, HBM, DDR3, LPDDR2; DDR4
  // absent). Latency-partition pages must fill the modules strictly in
  // chain order as each fills up, with every spill counted as a fallback.
  EventQueue events;
  dram::MemoryModule rl(dram::make_rldram3(), 4 * kPageBytes, 1, events,
                        "rl");
  dram::MemoryModule hbm(dram::make_hbm(), 4 * kPageBytes, 1, events, "hbm");
  dram::MemoryModule ddr3(dram::make_ddr3(), 4 * kPageBytes, 1, events,
                          "ddr3");
  dram::MemoryModule lp(dram::make_lpddr2(), 4 * kPageBytes, 1, events,
                        "lp");
  os::PhysicalMemory phys;
  phys.add_module(&rl);
  phys.add_module(&hbm);
  phys.add_module(&ddr3);
  phys.add_module(&lp);
  core::MocaPolicy policy;
  os::Os os(phys, policy);
  const os::ProcessId pid = os.create_process();

  const auto touch_latency_page = [&](int n) {
    (void)os.translate(pid, os::kHeapLatBase + n * kPageBytes);
  };
  // Chain: RLDRAM -> HBM -> DDR4 (absent, skipped) -> DDR3 -> LPDDR2.
  int page = 0;
  for (int i = 0; i < 4; ++i) touch_latency_page(page++);
  EXPECT_EQ(os.stats().frames_per_module, (std::vector<std::uint64_t>{
                                              4, 0, 0, 0}));
  EXPECT_EQ(os.stats().fallback_allocations, 0u);

  for (int i = 0; i < 4; ++i) touch_latency_page(page++);
  EXPECT_EQ(os.stats().frames_per_module, (std::vector<std::uint64_t>{
                                              4, 4, 0, 0}));
  EXPECT_EQ(os.stats().fallback_allocations, 4u);

  for (int i = 0; i < 4; ++i) touch_latency_page(page++);
  EXPECT_EQ(os.stats().frames_per_module, (std::vector<std::uint64_t>{
                                              4, 4, 4, 0}));
  EXPECT_EQ(os.stats().fallback_allocations, 8u);

  for (int i = 0; i < 4; ++i) touch_latency_page(page++);
  EXPECT_EQ(os.stats().frames_per_module, (std::vector<std::uint64_t>{
                                              4, 4, 4, 4}));
  EXPECT_EQ(os.stats().fallback_allocations, 12u);
  // Every spill stayed on the preference chain; the any-module last resort
  // never fired (LPDDR2 is the chain's own tail).
  EXPECT_EQ(os.stats().last_resort_allocations, 0u);
  EXPECT_EQ(os.stats().page_faults, 16u);

  // Machine genuinely out of memory: loud CheckError, not silent reuse.
  EXPECT_THROW(touch_latency_page(page), CheckError);
}

TEST(FallbackChain, LastResortCountedWhenChainHasNoSpace) {
  // HomogeneousPolicy's chain is a single kind; once that kind is full the
  // OS may only place pages via the any-module last resort, and every such
  // placement must be counted — no silent misplacement.
  EventQueue events;
  dram::MemoryModule ddr3(dram::make_ddr3(), 2 * kPageBytes, 1, events,
                          "ddr3");
  dram::MemoryModule hbm(dram::make_hbm(), 2 * kPageBytes, 1, events, "hbm");
  os::PhysicalMemory phys;
  phys.add_module(&ddr3);
  phys.add_module(&hbm);
  core::HomogeneousPolicy policy(dram::MemKind::kDdr3);
  os::Os os(phys, policy);
  const os::ProcessId pid = os.create_process();

  for (int p = 0; p < 2; ++p) {
    (void)os.translate(pid, os::kHeapPowBase + p * kPageBytes);
  }
  EXPECT_EQ(os.stats().frames_per_module, (std::vector<std::uint64_t>{
                                              2, 0}));
  EXPECT_EQ(os.stats().last_resort_allocations, 0u);

  for (int p = 2; p < 4; ++p) {
    (void)os.translate(pid, os::kHeapPowBase + p * kPageBytes);
  }
  // Both extra pages landed in HBM and both were accounted as fallback AND
  // last-resort placements.
  EXPECT_EQ(os.stats().frames_per_module, (std::vector<std::uint64_t>{
                                              2, 2}));
  EXPECT_EQ(os.stats().fallback_allocations, 2u);
  EXPECT_EQ(os.stats().last_resort_allocations, 2u);

  EXPECT_THROW((void)os.translate(pid, os::kHeapPowBase + 4 * kPageBytes),
               CheckError);
  // A failed allocation maps nothing: frame accounting is unchanged and the
  // same page can still not be translated (still out of memory).
  EXPECT_EQ(os.stats().frames_per_module, (std::vector<std::uint64_t>{
                                              2, 2}));
  EXPECT_THROW((void)os.translate(pid, os::kHeapPowBase + 4 * kPageBytes),
               CheckError);
}

TEST(FallbackChain, SameKindModulesExhaustTogetherBeforeSpilling) {
  // Two LPDDR2 modules: the round-robin cursor spreads non-intensive pages
  // across both, and the chain only falls back to DDR3 once BOTH are full.
  EventQueue events;
  dram::MemoryModule lp_a(dram::make_lpddr2(), 2 * kPageBytes, 1, events,
                          "lp0");
  dram::MemoryModule lp_b(dram::make_lpddr2(), 2 * kPageBytes, 1, events,
                          "lp1");
  dram::MemoryModule ddr3(dram::make_ddr3(), 4 * kPageBytes, 1, events,
                          "ddr3");
  os::PhysicalMemory phys;
  phys.add_module(&lp_a);
  phys.add_module(&lp_b);
  phys.add_module(&ddr3);
  core::MocaPolicy policy;
  os::Os os(phys, policy);
  const os::ProcessId pid = os.create_process();

  for (int p = 0; p < 4; ++p) {
    (void)os.translate(pid, os::kHeapPowBase + p * kPageBytes);
  }
  // Interleaved 2/2 across the LPDDR2 pair, no fallback yet.
  EXPECT_EQ(os.stats().frames_per_module, (std::vector<std::uint64_t>{
                                              2, 2, 0}));
  EXPECT_EQ(os.stats().fallback_allocations, 0u);

  (void)os.translate(pid, os::kHeapPowBase + 4 * kPageBytes);
  EXPECT_EQ(os.stats().frames_per_module, (std::vector<std::uint64_t>{
                                              2, 2, 1}));
  EXPECT_EQ(os.stats().fallback_allocations, 1u);
  EXPECT_EQ(os.stats().last_resort_allocations, 0u);
}

TEST(FaultPlanGrammar, ParsesEverySiteAndNamesBadClauses) {
  const FaultPlan plan = FaultPlan::parse(
      "module=RL-256MB:offline@1000;module=HBM-768MB:cap=8;"
      "frame=rl:every=3;alloc:p=0.25;trace:truncate=100;"
      "job:fail:attempts=1");
  ASSERT_EQ(plan.clauses().size(), 6u);
  EXPECT_EQ(plan.clauses()[0].site, FaultClause::Site::kModule);
  EXPECT_EQ(plan.clauses()[0].action, FaultClause::Action::kOffline);
  EXPECT_EQ(plan.clauses()[0].target, "RL-256MB");
  EXPECT_EQ(plan.clauses()[0].at_ps, 1000);
  EXPECT_EQ(plan.clauses()[1].value, 8u);
  EXPECT_EQ(plan.clauses()[3].prob, 0.25);
  EXPECT_EQ(plan.clauses()[5].attempts, 1u);

  EXPECT_THROW((void)FaultPlan::parse("module:offline"), CheckError);
  EXPECT_THROW((void)FaultPlan::parse("alloc:p=1.5"), CheckError);
  EXPECT_THROW((void)FaultPlan::parse("trace:truncate=0"), CheckError);
  try {
    (void)FaultPlan::parse("alloc:p=0.1;bogus:xyz");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    // The diagnostic must name the offending clause, not just "bad plan".
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos)
        << e.what();
  }
}

TEST(FaultInjection, OutcomesAreByteIdenticalAcrossWorkerCounts) {
  // The acceptance bar for deterministic chaos: the same fault plan under
  // --jobs 1 and --jobs 8 yields byte-identical deterministic outcome
  // serializations, including the typed failure kind.
  sim::Experiment e;
  e.instructions = 25'000;
  e.faults = FaultPlan::parse("alloc:p=0.3;frame=RL-256MB:every=3");
  const auto db = sim::build_profile_db({"gcc", "disparity"}, e);

  std::vector<sim::SweepJob> jobs;
  for (const std::string& app : {std::string("gcc"),
                                 std::string("disparity")}) {
    for (const sim::SystemChoice choice :
         {sim::SystemChoice::kMoca, sim::SystemChoice::kHomogenDdr3}) {
      sim::SweepJob job;
      job.apps = {app};
      job.choice = choice;
      job.experiment = e;
      job.label = app + "/" + sim::to_string(choice);
      jobs.push_back(std::move(job));
    }
  }
  // One cell fails every attempt: its kind must be as deterministic as the
  // healthy cells' metrics.
  jobs[3].experiment.faults = FaultPlan::parse("job:fail");

  sim::SweepRunner serial(1);
  sim::SweepRunner pooled(8);
  const auto a = serial.run(jobs, db);
  const auto b = pooled.run(jobs, db);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(sim::to_deterministic_json(a[i]),
              sim::to_deterministic_json(b[i]))
        << "cell " << i;
  }
  EXPECT_FALSE(a[3].ok);
  EXPECT_EQ(a[3].kind, sim::SweepOutcome::FailureKind::kQuarantined);
}

TEST(FaultInjection, OfflineModuleReroutesThenExhaustsLoudly) {
  // rl offline from tick 0: every latency page must reroute down the chain
  // into hbm (counted as fallback), and once hbm fills the machine is
  // genuinely out of frames — loud CheckError, no silent placement in the
  // offlined module.
  EventQueue events;
  dram::MemoryModule rl(dram::make_rldram3(), 4 * kPageBytes, 1, events,
                        "rl");
  dram::MemoryModule hbm(dram::make_hbm(), 4 * kPageBytes, 1, events, "hbm");
  os::PhysicalMemory phys;
  phys.add_module(&rl);
  phys.add_module(&hbm);
  FaultInjector injector(FaultPlan::parse("module=rl:offline"), 1);
  phys.set_fault_injector(&injector);
  core::MocaPolicy policy;
  os::Os os(phys, policy);
  const os::ProcessId pid = os.create_process();

  for (int p = 0; p < 4; ++p) {
    (void)os.translate(pid, os::kHeapLatBase + p * kPageBytes);
  }
  EXPECT_EQ(os.stats().frames_per_module,
            (std::vector<std::uint64_t>{0, 4}));
  EXPECT_EQ(os.stats().fallback_allocations, 4u);
  EXPECT_EQ(injector.counters().frame_denials, 4u);
  EXPECT_THROW((void)os.translate(pid, os::kHeapLatBase + 4 * kPageBytes),
               CheckError);
}

TEST(FaultInjection, CapClauseClampsModuleCapacity) {
  EventQueue events;
  dram::MemoryModule rl(dram::make_rldram3(), 8 * kPageBytes, 1, events,
                        "rl");
  dram::MemoryModule hbm(dram::make_hbm(), 8 * kPageBytes, 1, events, "hbm");
  os::PhysicalMemory phys;
  phys.add_module(&rl);
  phys.add_module(&hbm);
  FaultInjector injector(FaultPlan::parse("module=rl:cap=2"), 1);
  phys.set_fault_injector(&injector);
  core::MocaPolicy policy;
  os::Os os(phys, policy);
  const os::ProcessId pid = os.create_process();

  for (int p = 0; p < 6; ++p) {
    (void)os.translate(pid, os::kHeapLatBase + p * kPageBytes);
  }
  // Only 2 frames fit in the capped rl; the other 4 spilled to hbm.
  EXPECT_EQ(os.stats().frames_per_module,
            (std::vector<std::uint64_t>{2, 4}));
  EXPECT_EQ(os.stats().fallback_allocations, 4u);
}

TEST(Supervised, DeadlineYieldsDeterministicTimedOutWithoutRetry) {
  sim::SweepJob job;
  job.apps = {"gcc"};
  job.choice = sim::SystemChoice::kHomogenDdr3;
  job.experiment.instructions = 200'000'000;  // far beyond the budget
  job.label = "slow";

  // Two budgets stop the cell at different simulated cycles; the outcome
  // bytes must not say where.
  std::vector<std::string> outcome_jsons;
  for (const double budget_ms : {50.0, 80.0}) {
    sim::SupervisorOptions options;
    options.timeout_ms = budget_ms;
    options.max_attempts = 3;
    sim::SweepRunner runner(1);
    sim::SweepSupervisor supervisor(runner, options);
    const auto result = supervisor.run({job}, {});
    ASSERT_EQ(result.outcomes.size(), 1u);
    const sim::SweepOutcome& out = result.outcomes[0];
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.kind, sim::SweepOutcome::FailureKind::kTimedOut);
    EXPECT_EQ(out.attempts, 1u);  // timeouts never retry
    EXPECT_NE(out.error.find("cancelled"), std::string::npos) << out.error;
    outcome_jsons.push_back(result.outcome_jsons.at(0));
  }
  EXPECT_EQ(outcome_jsons[0], outcome_jsons[1]);
}

TEST(Supervised, RetryBudgetExhaustionQuarantines) {
  sim::SweepJob job;
  job.apps = {"gcc"};
  job.choice = sim::SystemChoice::kHomogenDdr3;
  job.experiment.instructions = 20'000;
  job.experiment.faults = FaultPlan::parse("job:fail");

  sim::SupervisorOptions options;
  options.max_attempts = 2;
  sim::SweepRunner runner(1);
  sim::SweepSupervisor supervisor(runner, options);
  const auto result = supervisor.run({job}, {});
  const sim::SweepOutcome& out = result.outcomes[0];
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.kind, sim::SweepOutcome::FailureKind::kQuarantined);
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_NE(out.error.find("fault injection"), std::string::npos)
      << out.error;
}

TEST(Supervised, TransientFaultSucceedsOnRetry) {
  sim::SweepJob job;
  job.apps = {"gcc"};
  job.choice = sim::SystemChoice::kHomogenDdr3;
  job.experiment.instructions = 20'000;
  // Fails on attempt 0 only: the retry must succeed deterministically.
  job.experiment.faults = FaultPlan::parse("job:fail:attempts=1");

  sim::SupervisorOptions options;
  options.max_attempts = 3;
  sim::SweepRunner runner(1);
  sim::SweepSupervisor supervisor(runner, options);
  const auto result = supervisor.run({job}, {});
  const sim::SweepOutcome& out = result.outcomes[0];
  EXPECT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.kind, sim::SweepOutcome::FailureKind::kNone);
  EXPECT_EQ(out.attempts, 2u);
}

std::vector<sim::SweepJob> resume_fixture_jobs() {
  std::vector<sim::SweepJob> jobs;
  for (const sim::SystemChoice choice :
       {sim::SystemChoice::kHomogenDdr3, sim::SystemChoice::kHomogenLpddr2,
        sim::SystemChoice::kHomogenRldram, sim::SystemChoice::kHomogenHbm}) {
    sim::SweepJob job;
    job.apps = {"gcc"};
    job.choice = choice;
    job.experiment.instructions = 20'000;
    job.label = sim::to_string(choice);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(Supervised, KillAndResumeMergesByteIdentically) {
  const std::vector<sim::SweepJob> jobs = resume_fixture_jobs();
  sim::SweepRunner runner(2);

  // Uninterrupted reference run.
  const std::string journal_a = temp_path("moca_sup_journal_a.jsonl");
  sim::SupervisorOptions options_a;
  options_a.journal_path = journal_a;
  sim::SweepSupervisor supervisor_a(runner, options_a);
  const auto result_a = supervisor_a.run(jobs, {});

  // Simulate a kill: keep the first two journal lines plus a torn partial
  // third line (the crash happened mid-append).
  std::vector<std::string> lines;
  {
    std::ifstream in(journal_a);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 4u);
  const std::string journal_b = temp_path("moca_sup_journal_b.jsonl");
  {
    std::ofstream out(journal_b, std::ios::trunc);
    out << lines[0] << '\n'
        << lines[1] << '\n'
        << R"({"journal_version":1,"fingerp)";  // torn tail
  }

  sim::SupervisorOptions options_b;
  options_b.journal_path = journal_b;
  options_b.resume = true;
  sim::SweepSupervisor supervisor_b(runner, options_b);
  const auto result_b = supervisor_b.run(jobs, {});

  EXPECT_EQ(result_b.resumed_cells, 2u);
  EXPECT_TRUE(result_b.outcomes[0].resumed);
  EXPECT_FALSE(result_b.outcomes[3].resumed);
  EXPECT_TRUE(result_b.outcomes[0].ok);
  EXPECT_EQ(result_b.outcomes[0].label, jobs[0].label);
  // The acceptance bar: the merged report is byte-identical to the
  // uninterrupted run's.
  EXPECT_EQ(result_a.report, result_b.report);

  std::remove(journal_a.c_str());
  std::remove(journal_b.c_str());
}

TEST(Supervised, ResumeRejectsForeignOrCorruptJournals) {
  const std::vector<sim::SweepJob> jobs = resume_fixture_jobs();
  sim::SweepRunner runner(1);

  // Fingerprint mismatch: an entry recorded for a different sweep.
  const std::string foreign = temp_path("moca_sup_journal_foreign.jsonl");
  {
    std::ofstream out(foreign, std::ios::trunc);
    out << R"({"journal_version":1,"fingerprint":"00000000000000ff",)"
        << R"("cell":0,"outcome":{"job_id":0,"ok":false,"kind":"failed",)"
        << R"("attempts":1,"error":"x"}})" << '\n';
  }
  sim::SupervisorOptions options;
  options.journal_path = foreign;
  options.resume = true;
  {
    sim::SweepSupervisor supervisor(runner, options);
    EXPECT_THROW((void)supervisor.run(jobs, {}), CheckError);
  }
  std::remove(foreign.c_str());

  // A corrupt line that is NOT the final one is not a torn tail — it means
  // the journal cannot be trusted at all.
  const std::string corrupt = temp_path("moca_sup_journal_corrupt.jsonl");
  {
    std::ofstream out(corrupt, std::ios::trunc);
    out << "garbage\n"
        << "more garbage\n";
  }
  options.journal_path = corrupt;
  {
    sim::SweepSupervisor supervisor(runner, options);
    EXPECT_THROW((void)supervisor.run(jobs, {}), CheckError);
  }

  // A well-framed line (this sweep's fingerprint) whose cell or attempts
  // number is not a decimal in range is corrupt too: it must neither abort
  // the process nor wrap to another cell. Each bad line is followed by a
  // torn tail, so it is not the final line.
  const std::string frame = R"({"journal_version":1,"fingerprint":")" +
                            sim::sweep_fingerprint(jobs) + R"(","cell":)";
  for (const std::string& numbers :
       {std::string(R"(0,"outcome":{"job_id":0,"ok":false,"kind":"failed",)"
                    R"("attempts":x,"error":"x"}})"),
        std::string(R"(0,"outcome":{"job_id":0,"ok":false,"kind":"failed",)"
                    R"("attempts":99999999999999999999,"error":"x"}})"),
        std::string(R"(18446744073709551616,"outcome":{"job_id":0,"ok":)"
                    R"(false,"kind":"failed","attempts":1,"error":"x"}})")}) {
    {
      std::ofstream out(corrupt, std::ios::trunc);
      out << frame << numbers << '\n'
          << R"({"journal_version":1,"fingerp)";
    }
    sim::SweepSupervisor supervisor(runner, options);
    try {
      (void)supervisor.run(jobs, {});
      ADD_FAILURE() << "accepted: " << numbers;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("corrupt journal line 1"),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(corrupt.c_str());
}

TEST(Auditor, CleanStatePassesAndPlantedCorruptionIsCaught) {
  EventQueue events;
  dram::MemoryModule module(dram::make_ddr3(), 16 * MiB, 1, events, "m");
  os::PhysicalMemory phys;
  phys.add_module(&module);
  core::HomogeneousPolicy policy(dram::MemKind::kDdr3);
  os::Os os(phys, policy);
  const os::ProcessId pid = os.create_process();
  for (int p = 0; p < 10; ++p) {
    (void)os.translate(pid, os::kHeapPowBase + p * kPageBytes);
  }

  os::Auditor auditor(os);
  auditor.run_audit();
  EXPECT_EQ(auditor.counters().audits, 1u);
  EXPECT_EQ(auditor.counters().pages_checked, 10u);

  // Plant a double mapping: a second vpn aliasing an already-mapped frame.
  // The audit must catch it (invariant A2), loudly.
  os::PageTable& table = os.address_space(pid).page_table();
  const auto entries = table.entries();
  ASSERT_FALSE(entries.empty());
  table.map(entries[0].first + 9999, entries[0].second);
  EXPECT_THROW(auditor.run_audit(), CheckError);
}

TEST(Auditor, RunsInsideSimulationWhenEnabled) {
  sim::Experiment e;
  e.instructions = 30'000;
  e.observability.audit = true;
  const auto db = sim::build_profile_db({"gcc"}, e);
  // Completing without throwing means every per-epoch and final audit pass
  // reconciled page tables, free lists and the object registry.
  const sim::RunResult r =
      sim::run_workload({"gcc"}, sim::SystemChoice::kMoca, db, e);
  EXPECT_EQ(r.cores[0].core.committed, e.instructions);
}

TEST(ParseDiagnostics, ErrorsNameLineColumnAndOffendingToken) {
  try {
    (void)workload::parse_app_spec(
        "app x\nobject buf 4 wat weight=1\n");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("col 14"), std::string::npos) << what;
    EXPECT_NE(what.find("'wat'"), std::string::npos) << what;
  }
  try {
    (void)workload::parse_app_spec("app\n");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    EXPECT_NE(what.find("app name"), std::string::npos) << what;
  }
}

TEST(Degenerate, ZeroWeightlessAppRejected) {
  workload::AppSpec app = workload::app_by_name("gcc");
  app.objects.clear();
  os::AddressSpace space(0);
  core::ObjectRegistry registry;
  core::MocaAllocator alloc(space, registry, nullptr);
  EXPECT_THROW(workload::AppStream(app, 1.0, 1, alloc, space), CheckError);
}

}  // namespace
}  // namespace moca
