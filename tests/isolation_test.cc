// Process-isolation tests: crash containment, hard deadlines, OOM
// decoding, graceful interrupt and byte-identical merges across isolated /
// in-process / killed-and-resumed executions of the same sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "sim/isolation.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "sim/supervisor.h"
#include "sim/sweep.h"

namespace moca {
namespace {

using Clock = std::chrono::steady_clock;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

double elapsed_ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// --- run_isolated unit tests -------------------------------------------

TEST(RunIsolated, DeliversFrameFromHealthyChild) {
  sim::IsolationLimits limits;
  const sim::ChildOutcome out = sim::run_isolated(
      limits, nullptr, [](sim::Heartbeat& hb) {
        hb.set_phase(sim::ChildPhase::kRunning);
        hb.set_phase(sim::ChildPhase::kReporting);
        sim::ChildFrame frame;
        frame.kind = sim::ChildFrame::Kind::kOk;
        frame.outcome_json = R"({"job_id":0,"ok":true})";
        frame.total_instructions = 12345;
        return frame;
      });
  EXPECT_EQ(out.status, sim::ChildOutcome::Status::kDelivered);
  EXPECT_EQ(out.frame.kind, sim::ChildFrame::Kind::kOk);
  EXPECT_EQ(out.frame.outcome_json, R"({"job_id":0,"ok":true})");
  EXPECT_EQ(out.frame.total_instructions, 12345u);
  // The frame was fully written, so the child published kDone last.
  EXPECT_EQ(out.last_phase, sim::ChildPhase::kDone);
}

TEST(RunIsolated, CrashDecodedWithSignalAndLastPhase) {
  sim::IsolationLimits limits;
  const sim::ChildOutcome out = sim::run_isolated(
      limits, nullptr, [](sim::Heartbeat& hb) -> sim::ChildFrame {
        hb.set_phase(sim::ChildPhase::kRunning);
        // Re-raise through the default handler so the child dies by a real
        // SIGSEGV even when a sanitizer installed its own handler.
        std::signal(SIGSEGV, SIG_DFL);
        std::raise(SIGSEGV);
        return {};
      });
  EXPECT_EQ(out.status, sim::ChildOutcome::Status::kCrashed);
  EXPECT_EQ(out.signal, SIGSEGV);
  EXPECT_EQ(out.last_phase, sim::ChildPhase::kRunning);
}

TEST(RunIsolated, DeadlineKillsWedgedChild) {
  sim::IsolationLimits limits;
  limits.deadline_ms = 300;
  const Clock::time_point start = Clock::now();
  const sim::ChildOutcome out = sim::run_isolated(
      limits, nullptr, [](sim::Heartbeat&) -> sim::ChildFrame {
        for (;;) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      });
  // The wedged child never cooperates; the parent must SIGKILL it within
  // 2x the deadline (the acceptance bar for hang containment).
  EXPECT_LT(elapsed_ms(start), 600.0);
  EXPECT_EQ(out.status, sim::ChildOutcome::Status::kDeadline);
  EXPECT_EQ(out.signal, SIGKILL);
}

TEST(RunIsolated, ThrowingCallbackBecomesFailedFrame) {
  sim::IsolationLimits limits;
  const sim::ChildOutcome out = sim::run_isolated(
      limits, nullptr, [](sim::Heartbeat&) -> sim::ChildFrame {
        throw std::runtime_error("boom in child");
      });
  EXPECT_EQ(out.status, sim::ChildOutcome::Status::kDelivered);
  EXPECT_EQ(out.frame.kind, sim::ChildFrame::Kind::kFailed);
  EXPECT_NE(out.frame.error.find("boom in child"), std::string::npos);
}

// --- supervised isolation ----------------------------------------------

std::vector<sim::SweepJob> fixture_jobs() {
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

sim::SweepSupervisor::Result run_supervised(
    const std::vector<sim::SweepJob>& jobs, sim::SupervisorOptions options,
    unsigned workers) {
  sim::SweepRunner runner(workers);
  sim::SweepSupervisor supervisor(runner, std::move(options));
  return supervisor.run(jobs, {});
}

TEST(Isolated, CrashQuarantinesOneCellOthersByteIdentical) {
  // The acceptance bar: a SIGSEGV injected into cell 2 costs exactly that
  // cell; every surviving cell's serialization is byte-identical to the
  // non-isolated fault-free run, at --jobs 1 and --jobs 4 alike.
  std::vector<sim::SweepJob> jobs = fixture_jobs();
  const sim::SweepSupervisor::Result reference =
      run_supervised(jobs, {}, 1);  // in-process, no faults

  for (sim::SweepJob& job : jobs) {
    job.experiment.faults = FaultPlan::parse("job:crash:cell=2");
  }
  sim::SupervisorOptions options;
  options.isolate = true;
  options.max_attempts = 2;
  for (const unsigned workers : {1u, 4u}) {
    const sim::SweepSupervisor::Result result =
        run_supervised(jobs, options, workers);
    ASSERT_EQ(result.outcomes.size(), 4u) << workers << " workers";
    ASSERT_EQ(result.outcome_jsons.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      if (i == 2) continue;
      EXPECT_TRUE(result.outcomes[i].ok);
      EXPECT_EQ(result.outcome_jsons[i], reference.outcome_jsons[i])
          << "cell " << i << " with " << workers << " workers";
    }
    const sim::SweepOutcome& crashed = result.outcomes[2];
    EXPECT_FALSE(crashed.ok);
    EXPECT_EQ(crashed.kind, sim::SweepOutcome::FailureKind::kCrashed);
    EXPECT_EQ(crashed.crash_signal, SIGSEGV);
    EXPECT_EQ(crashed.crash_phase, "running");
    EXPECT_EQ(crashed.attempts, 2u);  // crashes retry, then keep their kind
  }
}

TEST(Isolated, TransientCrashSucceedsOnRetry) {
  std::vector<sim::SweepJob> jobs = fixture_jobs();
  // Crashes on attempt 0 only: the re-spawned child must succeed.
  jobs[0].experiment.faults = FaultPlan::parse("job:crash:cell=0:attempts=1");
  sim::SupervisorOptions options;
  options.isolate = true;
  options.max_attempts = 3;
  const sim::SweepSupervisor::Result result =
      run_supervised(jobs, options, 2);
  const sim::SweepOutcome& out = result.outcomes[0];
  EXPECT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.kind, sim::SweepOutcome::FailureKind::kNone);
  EXPECT_EQ(out.attempts, 2u);
  // The successful attempt's verdict replaces the crash completely: no
  // stale fingerprint on an ok cell.
  EXPECT_EQ(out.crash_signal, 0);
  EXPECT_EQ(out.crash_phase, "");
}

TEST(Isolated, HangKilledWithinTwiceDeadline) {
  std::vector<sim::SweepJob> jobs = fixture_jobs();
  jobs[1].experiment.faults = FaultPlan::parse("job:hang:cell=1");
  sim::SupervisorOptions options;
  options.isolate = true;
  options.timeout_ms = 1500;
  options.max_attempts = 3;
  const Clock::time_point start = Clock::now();
  const sim::SweepSupervisor::Result result =
      run_supervised(jobs, options, 4);
  EXPECT_LT(elapsed_ms(start), 3000.0);  // killed within 2x the deadline
  const sim::SweepOutcome& hung = result.outcomes[1];
  EXPECT_FALSE(hung.ok);
  EXPECT_EQ(hung.kind, sim::SweepOutcome::FailureKind::kTimedOut);
  EXPECT_EQ(hung.attempts, 1u);  // deadline kills never retry
  for (const std::size_t i : {0u, 2u, 3u}) {
    EXPECT_TRUE(result.outcomes[i].ok) << "cell " << i;
  }
}

TEST(Isolated, OomClassifiedAsOomKilled) {
  std::vector<sim::SweepJob> jobs = fixture_jobs();
  jobs[3].experiment.faults = FaultPlan::parse("job:oom:cell=3");
  sim::SupervisorOptions options;
  options.isolate = true;
  options.max_attempts = 2;
  const sim::SweepSupervisor::Result result =
      run_supervised(jobs, options, 2);
  const sim::SweepOutcome& oom = result.outcomes[3];
  EXPECT_FALSE(oom.ok);
  EXPECT_EQ(oom.kind, sim::SweepOutcome::FailureKind::kOomKilled);
  EXPECT_EQ(oom.attempts, 2u);  // OOM kills retry, then keep their kind
  for (const std::size_t i : {0u, 1u, 2u}) {
    EXPECT_TRUE(result.outcomes[i].ok) << "cell " << i;
  }
}

TEST(Isolated, DeterministicReportExcludesHostTiming) {
  // Two isolated runs of the same sweep must produce byte-identical
  // reports even though their wall times differ.
  const std::vector<sim::SweepJob> jobs = fixture_jobs();
  sim::SupervisorOptions options;
  options.isolate = true;
  const sim::SweepSupervisor::Result a = run_supervised(jobs, options, 1);
  const sim::SweepSupervisor::Result b = run_supervised(jobs, options, 4);
  EXPECT_EQ(a.report, b.report);
}

TEST(Isolated, KillAndResumeMergesByteIdentically) {
  const std::vector<sim::SweepJob> jobs = fixture_jobs();

  // Uninterrupted isolated reference run.
  const std::string journal_a = temp_path("moca_iso_journal_a.jsonl");
  sim::SupervisorOptions options_a;
  options_a.isolate = true;
  options_a.journal_path = journal_a;
  const sim::SweepSupervisor::Result result_a =
      run_supervised(jobs, options_a, 2);

  // Simulate a parent kill -9: two durable lines survive plus a torn
  // partial third (the kill landed mid-append).
  std::vector<std::string> lines;
  {
    std::ifstream in(journal_a);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 4u);
  const std::string journal_b = temp_path("moca_iso_journal_b.jsonl");
  {
    std::ofstream out(journal_b, std::ios::trunc);
    out << lines[0] << '\n'
        << lines[1] << '\n'
        << R"({"journal_version":1,"fingerp)";  // torn tail
  }

  sim::SupervisorOptions options_b;
  options_b.isolate = true;
  options_b.journal_path = journal_b;
  options_b.resume = true;
  const sim::SweepSupervisor::Result result_b =
      run_supervised(jobs, options_b, 2);

  EXPECT_EQ(result_b.resumed_cells, 2u);
  EXPECT_EQ(result_b.torn_journal_lines, 1u);
  EXPECT_EQ(result_a.report, result_b.report);

  std::remove(journal_a.c_str());
  std::remove(journal_b.c_str());
}

std::size_t journal_line_count(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  return lines;
}

// The two interrupt tests below run every check in both modes, isolated
// and in-process.
TEST(Isolated, InterruptMarksUnfinishedCellsAndSkipsJournal) {
  const std::vector<sim::SweepJob> jobs = fixture_jobs();
  for (const bool isolate : {true, false}) {
    SCOPED_TRACE(isolate ? "isolated" : "in-process");
    const std::string journal = temp_path("moca_iso_journal_int.jsonl");
    std::atomic<bool> interrupt{true};  // pre-set: stop before any cell runs
    sim::SupervisorOptions options;
    options.isolate = isolate;
    options.journal_path = journal;
    options.interrupt = &interrupt;
    const sim::SweepSupervisor::Result result =
        run_supervised(jobs, options, 2);

    EXPECT_TRUE(result.interrupted);
    EXPECT_NE(result.report.find("\"interrupted\":true"), std::string::npos);
    for (const sim::SweepOutcome& out : result.outcomes) {
      EXPECT_FALSE(out.ok);
      EXPECT_EQ(out.kind, sim::SweepOutcome::FailureKind::kInterrupted);
    }
    // Interrupted cells are never journaled: resume must re-run everything.
    EXPECT_EQ(journal_line_count(journal), 0u);
    std::remove(journal.c_str());
  }
}

TEST(Isolated, InterruptedSweepResumesToFullReport) {
  // The interrupt contract end-to-end: cells finished before the interrupt
  // are durable; a resume with the flag clear completes the sweep and the
  // merged report is byte-identical to an uninterrupted run.
  const std::vector<sim::SweepJob> jobs = fixture_jobs();
  for (const bool isolate : {true, false}) {
    SCOPED_TRACE(isolate ? "isolated" : "in-process");
    sim::SupervisorOptions plain;
    plain.isolate = isolate;
    const sim::SweepSupervisor::Result reference =
        run_supervised(jobs, plain, 1);

    const std::string journal = temp_path("moca_iso_journal_res.jsonl");
    std::atomic<bool> interrupt{true};
    sim::SupervisorOptions options;
    options.isolate = isolate;
    options.journal_path = journal;
    options.interrupt = &interrupt;
    const sim::SweepSupervisor::Result partial =
        run_supervised(jobs, options, 1);
    EXPECT_TRUE(partial.interrupted);

    sim::SupervisorOptions resume;
    resume.isolate = isolate;
    resume.journal_path = journal;
    resume.resume = true;
    const sim::SweepSupervisor::Result completed =
        run_supervised(jobs, resume, 1);
    EXPECT_FALSE(completed.interrupted);
    EXPECT_EQ(completed.report, reference.report);
    std::remove(journal.c_str());
  }
}

TEST(Interrupt, InProcessFlagStopsRunningCells) {
  // A flag set mid-sweep reaches cells that are already simulating: each
  // stops at its next System::run poll, so two cells far too long to
  // finish end interrupted on their first attempt, nothing is journaled,
  // and the sweep returns promptly.
  std::vector<sim::SweepJob> jobs = fixture_jobs();
  jobs.resize(2);
  for (sim::SweepJob& job : jobs) job.experiment.instructions = 200'000'000;
  const std::string journal = temp_path("moca_inproc_journal_int.jsonl");
  std::atomic<bool> interrupt{false};
  sim::SupervisorOptions options;
  options.journal_path = journal;
  options.interrupt = &interrupt;

  const Clock::time_point start = Clock::now();
  std::thread stopper([&interrupt] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    interrupt.store(true);
  });
  const sim::SweepSupervisor::Result result =
      run_supervised(jobs, options, 2);
  const double ms = elapsed_ms(start);
  stopper.join();

  EXPECT_LT(ms, 1000.0);
  EXPECT_TRUE(result.interrupted);
  ASSERT_EQ(result.outcomes.size(), 2u);
  for (const sim::SweepOutcome& out : result.outcomes) {
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.kind, sim::SweepOutcome::FailureKind::kInterrupted);
    EXPECT_EQ(out.attempts, 1u);
  }
  EXPECT_EQ(journal_line_count(journal), 0u);
  std::remove(journal.c_str());
}

TEST(FaultPlanGrammar, ParsesIsolationClauses) {
  const FaultPlan plan = FaultPlan::parse(
      "job:crash:cell=2;job:hang;job:oom:cell=0:attempts=1");
  ASSERT_EQ(plan.clauses().size(), 3u);
  EXPECT_EQ(plan.clauses()[0].action, FaultClause::Action::kJobCrash);
  EXPECT_EQ(plan.clauses()[0].cell, 2);
  EXPECT_EQ(plan.clauses()[1].action, FaultClause::Action::kJobHang);
  EXPECT_EQ(plan.clauses()[1].cell, -1);  // every cell
  EXPECT_EQ(plan.clauses()[2].action, FaultClause::Action::kJobOom);
  EXPECT_EQ(plan.clauses()[2].attempts, 1u);

  EXPECT_THROW((void)FaultPlan::parse("job:crash:cell=x"), CheckError);
  EXPECT_THROW((void)FaultPlan::parse("alloc:crash"), CheckError);
}

}  // namespace
}  // namespace moca
