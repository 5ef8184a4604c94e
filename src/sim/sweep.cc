#include "sim/sweep.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/work_queue.h"
#include "workload/suite.h"

namespace moca::sim {

std::string to_string(SweepOutcome::FailureKind kind) {
  switch (kind) {
    case SweepOutcome::FailureKind::kNone:
      return "none";
    case SweepOutcome::FailureKind::kFailed:
      return "failed";
    case SweepOutcome::FailureKind::kTimedOut:
      return "timed_out";
    case SweepOutcome::FailureKind::kQuarantined:
      return "quarantined";
    case SweepOutcome::FailureKind::kCrashed:
      return "crashed";
    case SweepOutcome::FailureKind::kOomKilled:
      return "oom_killed";
    case SweepOutcome::FailureKind::kInterrupted:
      return "interrupted";
  }
  MOCA_CHECK_MSG(false, "unknown FailureKind");
  return {};
}

unsigned SweepRunner::resolve_workers(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

SweepRunner::SweepRunner(unsigned workers)
    : workers_(resolve_workers(workers)) {}

void SweepRunner::for_each_index(
    std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const unsigned pool =
      static_cast<unsigned>(std::min<std::size_t>(workers_, count));

  // Per-slot error capture shared by the serial and pooled paths: every
  // slot runs, and everything that failed is reported — not just the
  // first error (which used to silently discard the rest).
  std::mutex error_mutex;
  std::vector<std::pair<std::size_t, std::string>> errors;
  std::exception_ptr first_error;
  const auto guarded = [&](std::size_t index) {
    try {
      fn(index);
    } catch (const std::exception& e) {
      std::lock_guard lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
      errors.emplace_back(index, e.what());
    } catch (...) {
      std::lock_guard lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
      errors.emplace_back(index, "unknown exception");
    }
  };

  if (pool <= 1) {
    for (std::size_t i = 0; i < count; ++i) guarded(i);
  } else {
    WorkQueue<std::size_t> queue;
    for (std::size_t i = 0; i < count; ++i) queue.push(i);
    queue.close();
    auto worker = [&] {
      while (auto index = queue.pop()) guarded(*index);
    };
    std::vector<std::thread> threads;
    threads.reserve(pool);
    for (unsigned t = 0; t < pool; ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }

  if (errors.empty()) return;
  // A lone failure keeps its original type (callers may dispatch on it);
  // multiple failures aggregate into one message, in slot order so the
  // text is independent of completion order.
  if (errors.size() == 1) std::rethrow_exception(first_error);
  std::sort(errors.begin(), errors.end());
  std::ostringstream os;
  os << errors.size() << " of " << count << " slots failed:";
  for (const auto& [slot, what] : errors) {
    os << "\n  slot " << slot << ": " << what;
  }
  throw CheckError(os.str());
}

std::map<std::string, core::ClassifiedApp> build_profile_db(
    const std::vector<std::string>& names, const Experiment& experiment,
    SweepRunner& runner) {
  // Dedup first so each app is profiled exactly once.
  std::vector<std::string> unique;
  for (const std::string& name : names) {
    bool seen = false;
    for (const std::string& u : unique) seen = seen || u == name;
    if (!seen) unique.push_back(name);
  }

  std::vector<core::ClassifiedApp> classified(unique.size());
  runner.for_each_index(unique.size(), [&](std::size_t i) {
    const core::AppProfile profile =
        profile_app(workload::app_by_name(unique[i]), experiment);
    classified[i] = classify_for_runtime(profile, experiment);
  });

  std::map<std::string, core::ClassifiedApp> db;
  for (std::size_t i = 0; i < unique.size(); ++i) {
    db.emplace(unique[i], std::move(classified[i]));
  }
  return db;
}

std::vector<SweepJob> cross_product(
    const std::vector<std::vector<std::string>>& workloads,
    const std::vector<SystemChoice>& choices, const Experiment& experiment) {
  std::vector<SweepJob> jobs;
  jobs.reserve(workloads.size() * choices.size());
  for (const std::vector<std::string>& apps : workloads) {
    for (const SystemChoice choice : choices) {
      SweepJob job;
      job.apps = apps;
      job.choice = choice;
      job.experiment = experiment;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

}  // namespace moca::sim
