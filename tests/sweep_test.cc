// SweepRunner determinism and robustness: the parallel engine must produce
// results that are independent of worker count (byte-identical JSON, same
// order), survive failing jobs, handle degenerate shapes (empty job lists,
// more jobs than workers), and run every cell through the supervisor's one
// retry ladder.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <thread>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/work_queue.h"
#include "moca/adaptive.h"
#include "os/migration.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "sim/supervisor.h"
#include "sim/sweep.h"

namespace moca {
namespace {

sim::Experiment small_experiment() {
  sim::Experiment e;
  e.instructions = 60'000;
  return e;
}

/// A small but representative job set: two apps x three systems, including
/// the classified MOCA policy so the db actually matters.
std::vector<sim::SweepJob> sample_jobs(const sim::Experiment& e) {
  const std::vector<sim::SystemChoice> systems{
      sim::SystemChoice::kHomogenDdr3, sim::SystemChoice::kHeterApp,
      sim::SystemChoice::kMoca};
  std::vector<sim::SweepJob> jobs;
  for (const char* app : {"gcc", "disparity"}) {
    for (const sim::SystemChoice choice : systems) {
      sim::SweepJob job;
      job.apps = {app};
      job.choice = choice;
      job.experiment = e;
      job.label = app;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

std::vector<std::string> report_jsons(
    const std::vector<sim::SweepOutcome>& outcomes) {
  std::vector<std::string> jsons;
  for (const sim::SweepOutcome& o : outcomes) {
    EXPECT_TRUE(o.ok) << o.error;
    jsons.push_back(sim::to_json(o.result));
  }
  return jsons;
}

/// Compares `json` with tests/golden/`name`, or rewrites that file when
/// MOCA_UPDATE_GOLDEN is set.
void check_golden(const std::string& name, const std::string& json) {
  const std::filesystem::path dir =
      std::filesystem::path(MOCA_TEST_SOURCE_DIR) / "golden";
  const std::filesystem::path file = dir / name;
  if (std::getenv("MOCA_UPDATE_GOLDEN") != nullptr) {
    std::filesystem::create_directories(dir);
    std::ofstream out(file);
    out << json << "\n";
    return;
  }
  std::ifstream in(file);
  ASSERT_TRUE(in.good()) << "missing golden file " << file
                         << " (generate with MOCA_UPDATE_GOLDEN=1)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(json + "\n", want.str())
      << "simulated metrics diverged from the golden report " << file;
}

/// Scheduler-swap regression gate: the simulated report JSON for a small
/// two-app sweep is pinned to golden files generated with the pre-PR-2
/// binary-heap scheduler. Any change to event execution order — scheduler
/// internals, hierarchy restructuring, System::run changes — shows up here
/// as a byte-level diff. Regenerate (only for intentional metric changes)
/// with: MOCA_UPDATE_GOLDEN=1 ctest -R GoldenReports
TEST(SweepRunner, GoldenReportsAreByteIdentical) {
  const sim::Experiment e = small_experiment();
  const std::vector<sim::SweepJob> jobs = sample_jobs(e);
  sim::SweepRunner runner(1);
  const auto db = sim::build_profile_db({"gcc", "disparity"}, e, runner);
  const std::vector<sim::SweepOutcome> outcomes = runner.run(jobs, db);
  ASSERT_EQ(outcomes.size(), jobs.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
    check_golden("report_" + jobs[i].label + "_" +
                     std::string(sim::to_string(jobs[i].choice)) + ".json",
                 sim::to_json(outcomes[i].result));
  }
}

/// The same gate over runs that move pages: the migration daemon on mcf
/// and the adaptive engine on gcc under MOCA. These pin the page-copy DRAM
/// traffic, the TLB shootdowns and the periodic epoch events, which the
/// default-Experiment goldens above never exercise. Regenerate like them.
TEST(SweepRunner, PageMoveGoldenReportsAreByteIdentical) {
  const sim::Experiment e = small_experiment();
  const sim::RunResult migration =
      sim::run_workload_with_migration({"mcf"}, e, os::MigrationConfig{});
  EXPECT_GT(migration.migration.promotions, 0u);
  check_golden("report_mcf_migration.json", sim::to_json(migration));

  sim::Experiment adaptive = e;
  adaptive.adaptive = core::parse_adaptive_spec("epoch=5000,max-pages=3");
  const auto db = sim::build_profile_db({"gcc"}, adaptive);
  const sim::RunResult moved =
      sim::run_workload({"gcc"}, sim::SystemChoice::kMoca, db, adaptive);
  EXPECT_GT(moved.adaptive.moved_pages, 0u);
  check_golden("report_gcc_MOCA-adaptive.json", sim::to_json(moved));
}

/// The same gate over 4-core mixes, where cores wait on memory while their
/// neighbours work and share the memory modules: the 2L2B mix under
/// Homogen-DDR3 and MOCA, and a MOCA run whose adaptive engine moves pages
/// while the epoch sampler reads every core's counters. Regenerate like
/// the goldens above.
TEST(SweepRunner, MultiCoreGoldenReportsAreByteIdentical) {
  sim::Experiment e;
  e.instructions = 100'000;
  const std::vector<std::string> mix{"mcf", "libquantum", "lbm", "mser"};
  const auto db = sim::build_profile_db(mix, e);
  for (const sim::SystemChoice choice :
       {sim::SystemChoice::kHomogenDdr3, sim::SystemChoice::kMoca}) {
    check_golden("report_2L2B_" + sim::to_string(choice) + ".json",
                 sim::to_json(sim::run_workload(mix, choice, db, e)));
  }

  sim::Experiment adaptive = e;
  adaptive.adaptive = core::parse_adaptive_spec("epoch=5000,max-pages=3");
  adaptive.observability.epoch_instructions = 5'000;
  const std::vector<std::string> apps{"gcc", "mcf", "lbm", "mser"};
  const sim::RunResult moved = sim::run_workload(
      apps, sim::SystemChoice::kMoca, sim::build_profile_db(apps, adaptive),
      adaptive);
  EXPECT_GT(moved.adaptive.moved_pages, 0u);
  EXPECT_GT(moved.observability.rows.size(), 0u);
  check_golden("report_gcc-mcf-lbm-mser_MOCA-adaptive.json",
               sim::to_json(moved));
}

TEST(SweepRunner, ThreadCountInvariance) {
  const sim::Experiment e = small_experiment();
  const std::vector<sim::SweepJob> jobs = sample_jobs(e);
  sim::SweepRunner seq(1);
  const auto db = sim::build_profile_db({"gcc", "disparity"}, e, seq);

  // The same job set under 1, 2 and 8 workers: byte-identical JSON reports
  // in the same (submission) order. 8 workers oversubscribes the job list
  // on any host, exercising the more-workers-than-jobs path too.
  const std::vector<std::string> base = report_jsons(seq.run(jobs, db));
  ASSERT_EQ(base.size(), jobs.size());
  for (const unsigned workers : {2u, 8u}) {
    sim::SweepRunner par(workers);
    EXPECT_EQ(par.workers(), workers);
    const std::vector<std::string> got = report_jsons(par.run(jobs, db));
    ASSERT_EQ(got.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(got[i], base[i])
          << "worker-count-dependent result for job " << i << " ("
          << jobs[i].label << " / " << to_string(jobs[i].choice) << ") with "
          << workers << " workers";
    }
  }
}

TEST(SweepRunner, ParallelProfileDbMatchesSequential) {
  const sim::Experiment e = small_experiment();
  const std::vector<std::string> names{"gcc", "disparity", "gcc"};  // dup
  sim::SweepRunner seq(1);
  sim::SweepRunner par(4);
  const auto db_seq = sim::build_profile_db(names, e, seq);
  const auto db_par = sim::build_profile_db(names, e, par);
  // Same as the original sequential runner.h entry point, too.
  const auto db_orig = sim::build_profile_db(names, e);

  ASSERT_EQ(db_seq.size(), 2u);
  ASSERT_EQ(db_par.size(), 2u);
  for (const auto& [name, classes] : db_seq) {
    ASSERT_TRUE(db_par.contains(name));
    ASSERT_TRUE(db_orig.contains(name));
    EXPECT_EQ(classes.app_class, db_par.at(name).app_class);
    EXPECT_EQ(classes.app_class, db_orig.at(name).app_class);
    EXPECT_EQ(classes.object_class, db_par.at(name).object_class);
    EXPECT_EQ(classes.object_class, db_orig.at(name).object_class);
  }
}

TEST(SweepRunner, EmptyJobList) {
  sim::SweepRunner runner(4);
  const std::vector<sim::SweepOutcome> outcomes = runner.run({}, {});
  EXPECT_TRUE(outcomes.empty());
}

TEST(SweepRunner, MoreJobsThanWorkers) {
  const sim::Experiment e = small_experiment();
  std::vector<sim::SweepJob> jobs;
  for (int i = 0; i < 7; ++i) {
    sim::SweepJob job;
    job.apps = {"gcc"};
    job.choice = sim::SystemChoice::kHomogenDdr3;
    job.experiment = e;
    jobs.push_back(std::move(job));
  }
  sim::SweepRunner runner(2);
  const auto db = sim::build_profile_db({"gcc"}, e, runner);
  const std::vector<sim::SweepOutcome> outcomes = runner.run(jobs, db);
  ASSERT_EQ(outcomes.size(), 7u);
  const std::string first = sim::to_json(outcomes[0].result);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].ok);
    EXPECT_EQ(outcomes[i].job_id, i);
    // Identical jobs must report identical simulated metrics.
    EXPECT_EQ(sim::to_json(outcomes[i].result), first);
  }
}

TEST(SweepRunner, FailingJobIsCapturedAndPoolSurvives) {
  const sim::Experiment e = small_experiment();
  std::vector<sim::SweepJob> jobs = sample_jobs(e);
  sim::SweepJob bad;
  bad.apps = {"no-such-app"};  // app_by_name throws CheckError
  bad.choice = sim::SystemChoice::kHomogenDdr3;
  bad.experiment = e;
  bad.label = "bad";
  jobs.insert(jobs.begin() + 2, std::move(bad));

  sim::SweepRunner runner(4);
  const auto db = sim::build_profile_db({"gcc", "disparity"}, e, runner);
  const std::vector<sim::SweepOutcome> outcomes = runner.run(jobs, db);
  ASSERT_EQ(outcomes.size(), jobs.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i == 2) {
      EXPECT_FALSE(outcomes[i].ok);
      EXPECT_FALSE(outcomes[i].error.empty());
    } else {
      EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
    }
  }
  // The error report is serializable alongside the good results.
  const std::string json = sim::to_deterministic_json(outcomes[2]);
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(json.find("\"error\""), std::string::npos);
  EXPECT_NE(sim::to_deterministic_json(outcomes[0]).find("\"ok\":true"),
            std::string::npos);
}

/// SweepRunner::run and SweepSupervisor::run at the default options are one
/// executor: a healthy cell, a cell that fails every attempt and a cell
/// with a transient fault end with the same kinds and attempts, and
/// serialize to the supervisor's bytes, at any worker count.
TEST(SweepRunner, RunsTheSupervisorLadderAtItsDefaults) {
  sim::Experiment e;
  e.instructions = 20'000;
  std::vector<sim::SweepJob> jobs(3);
  for (sim::SweepJob& job : jobs) {
    job.apps = {"gcc"};
    job.experiment = e;
  }
  jobs[0].label = "healthy";
  jobs[1].label = "failing";
  jobs[1].experiment.faults = FaultPlan::parse("job:fail");
  jobs[2].label = "transient";
  jobs[2].experiment.faults = FaultPlan::parse("job:fail:attempts=1");
  using Kind = sim::SweepOutcome::FailureKind;
  const Kind kinds[] = {Kind::kNone, Kind::kQuarantined, Kind::kNone};
  const std::uint32_t attempts[] = {1, 3, 2};

  for (const unsigned workers : {1u, 4u}) {
    sim::SweepRunner runner(workers);
    const std::vector<sim::SweepOutcome> outcomes = runner.run(jobs, {});
    sim::SweepSupervisor supervisor(runner, {});
    const sim::SweepSupervisor::Result result = supervisor.run(jobs, {});
    ASSERT_EQ(outcomes.size(), jobs.size());
    ASSERT_EQ(result.outcome_jsons.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(sim::to_deterministic_json(outcomes[i]),
                result.outcome_jsons[i])
          << jobs[i].label << ", " << workers << " workers";
      EXPECT_EQ(outcomes[i].kind, kinds[i]) << jobs[i].label;
      EXPECT_EQ(outcomes[i].attempts, attempts[i]) << jobs[i].label;
    }
  }
}

/// The --log line belongs to the ladder, so a supervised sweep writes one
/// `[sweep] job i/n` line per finished cell to the runner's log.
TEST(SweepSupervisor, LogsOneLinePerCell) {
  sim::Experiment e;
  e.instructions = 20'000;
  const std::vector<sim::SweepJob> jobs = sim::cross_product(
      {{"gcc"}},
      {sim::SystemChoice::kHomogenDdr3, sim::SystemChoice::kHomogenLpddr2,
       sim::SystemChoice::kMoca},
      e);
  std::ostringstream log;
  sim::SweepRunner runner(2);
  runner.set_log(&log);
  sim::SupervisorOptions options;
  options.max_attempts = 2;
  sim::SweepSupervisor supervisor(runner, options);
  const sim::SweepSupervisor::Result result = supervisor.run(jobs, {});

  std::vector<std::string> lines;
  std::istringstream in(log.str());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), jobs.size()) << log.str();
  std::sort(lines.begin(), lines.end());  // workers finish in any order
  // An ok cell's line ends with its host timing: wall ms, then M instr/s.
  const std::regex timing(
      R"(: ([0-9]+\.[0-9]) ms, ([0-9]+\.[0-9]{2})M instr/s$)");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ASSERT_TRUE(result.outcomes[i].ok) << result.outcomes[i].error;
    EXPECT_TRUE(lines[i].starts_with("[sweep] job " + std::to_string(i) +
                                     "/" + std::to_string(jobs.size())))
        << lines[i];
    std::smatch match;
    ASSERT_TRUE(std::regex_search(lines[i], match, timing)) << lines[i];
    EXPECT_GT(std::stod(match[2].str()), 0.0) << lines[i];
  }
}

TEST(SweepRunner, WorkerCountResolution) {
  // Explicit request wins.
  EXPECT_EQ(sim::SweepRunner::resolve_workers(3), 3u);
  EXPECT_EQ(sim::SweepRunner(3).workers(), 3u);
  // 0 falls back to the hardware thread count, never below one worker.
  // MOCA_SIM_JOBS is ExperimentOptions' business (parse_test).
  EXPECT_GE(sim::SweepRunner::resolve_workers(0), 1u);
  EXPECT_EQ(sim::SweepRunner(0).workers(),
            sim::SweepRunner::resolve_workers(0));
}

TEST(WorkQueue, DrainsAfterCloseAndUnblocksConsumers) {
  WorkQueue<int> queue;
  queue.push(1);
  queue.push(2);
  queue.close();
  queue.push(3);  // dropped: pushed after close
  std::multiset<int> seen;
  while (auto item = queue.pop()) seen.insert(*item);
  EXPECT_EQ(seen, (std::multiset<int>{1, 2}));

  // A consumer blocked on an empty queue wakes up on close.
  WorkQueue<int> empty;
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    EXPECT_EQ(empty.pop(), std::nullopt);
    woke = true;
  });
  empty.close();
  consumer.join();
  EXPECT_TRUE(woke);
}

TEST(WorkQueue, ConcurrentProducersAndConsumers) {
  WorkQueue<int> queue;
  constexpr int kPerProducer = 1000;
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) queue.push(p * kPerProducer + i);
    });
  }
  std::atomic<int> consumed{0};
  std::atomic<long long> sum{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto item = queue.pop()) {
        ++consumed;
        sum += *item;
      }
    });
  }
  for (std::thread& t : producers) t.join();
  queue.close();
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(consumed.load(), 3 * kPerProducer);
  const long long n = 3LL * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

}  // namespace
}  // namespace moca
