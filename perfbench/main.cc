// End-to-end and per-layer benchmark of the MOCA simulator.
//
//   moca_perfbench --workload W --seed N --seconds S --trace 0|1 --out DIR
//
// --trace 0 repeats the workload for S seconds and reports the end-to-end
// metrics as trimmed means over the repetitions. --trace 1 alternates
// untraced and traced repetitions for S seconds, then rebuilds every cell
// through the System constructor (so build and run time split), re-runs
// the sweep in-process and process-isolated, drives the workload generator
// on its own, writes DIR/trace.json (Chrome trace) and DIR/self_time.tsv,
// and reports the per-layer metrics.
//
// Between repetitions, cells and probes the run times a fixed reference
// kernel; every host time it reports is scaled to reference seconds by the
// kernel's mean time (hostspeed.h), so other tenants' load on a shared
// host moves the figures far less than it moves raw host time.
//
// Every repetition is checked: each cell must be ok, pass
// ref::check_run_result and ref::check_report_json, and report the same
// bytes as the first repetition; a cell that fails any check counts as
// failed. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hostspeed.h"
#include "probes.h"
#include "ref/stat_check.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "sim/supervisor.h"
#include "sim/sweep.h"
#include "sim/system.h"
#include "tracer.h"
#include "workload/suite.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using moca::sim::SweepOutcome;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Far above any cell's time (tens of milliseconds), so the supervisor's
// deadline never fires, yet below the benchmark's own time limit.
constexpr double kCellDeadlineMs = 60'000.0;
// Both modes repeat the untraced workload at least this often (the traced
// mode also runs one traced repetition fewer), so medians exist even when
// one repetition outlasts --seconds.
constexpr int kMinPasses = 3;
// The isolation probe runs in-process / isolated sweep pairs for this
// share of --seconds, and at least one pair.
constexpr double kIsolationShare = 0.25;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
    const std::string value = argv[++i];
    const auto bad_value = [&] {
      return std::invalid_argument("bad value for " + flag + ": '" + value +
                                   "'");
    };
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      const char* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(value.data(), end, args.seed);
      if (ec != std::errc() || ptr != end) throw bad_value();
    } else if (flag == "--seconds") {
      const char* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(value.data(), end, args.seconds);
      if (ec != std::errc() || ptr != end || !(args.seconds > 0.0)) {
        throw bad_value();
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw bad_value();
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  if (find_workload(args.workload) == nullptr) {
    throw std::invalid_argument("unknown workload: '" + args.workload + "'");
  }
  return args;
}

/// Cells attempted and failed across everything the run executed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void cell(const std::string& context, std::size_t index,
            const std::vector<std::string>& issues) {
    ++attempted;
    if (issues.empty()) return;
    ++failed;
    std::cerr << "moca_perfbench: " << context << " cell " << index
              << " failed";
    for (const std::string& issue : issues) std::cerr << "; " << issue;
    std::cerr << '\n';
  }
};

/// Empty when the cell finished ok with failure kind none.
std::vector<std::string> outcome_issues(const SweepOutcome& outcome) {
  if (outcome.ok && outcome.kind == SweepOutcome::FailureKind::kNone) {
    return {};
  }
  return {"outcome " + moca::sim::to_string(outcome.kind) + ": " +
          outcome.error};
}

/// Issues with one finished cell and its per-cell report.
std::vector<std::string> cell_issues(const SweepOutcome& outcome,
                                     const std::string& report) {
  std::vector<std::string> issues = outcome_issues(outcome);
  if (!issues.empty()) return issues;
  issues = moca::ref::check_run_result(outcome.result);
  for (std::string& issue :
       moca::ref::check_report_json(report, outcome.result)) {
    issues.push_back(std::move(issue));
  }
  return issues;
}

bool same_db(const ProfileDb& a, const ProfileDb& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, classes] : a) {
    const auto it = b.find(name);
    if (it == b.end() || it->second.app_class != classes.app_class ||
        it->second.object_class != classes.object_class) {
      return false;
    }
  }
  return true;
}

/// One repetition of the workload: profile-db stage, sweep, reports. Times
/// are host seconds as measured, without the host-speed samples.
struct Pass {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double sweep_s = 0.0;
  double kernel_mean_s = 0.0;  // host-speed kernel, over this pass
  ProfileDb db;
  std::vector<SweepOutcome> outcomes;
  std::vector<std::string> reports;  // sim::to_json per cell
  std::string merged;                // supervised: the merged sweep report
  std::uint64_t journal_bytes = 0;
  SpanId root = kNoSpan;  // traced passes

  [[nodiscard]] std::uint64_t instructions() const {
    std::uint64_t total = 0;
    for (const SweepOutcome& o : outcomes) total += o.result.total_instructions;
    return total;
  }
};

/// What the traced run learns by rebuilding every cell through System.
struct Split {
  SpanId root = kNoSpan;
  std::uint64_t run_allocs = 0;
  std::uint64_t report_bytes = 0;
  PolicyCounters policy;
};

class Bench {
 public:
  Bench(const WorkloadDef& def, std::uint64_t seed,
        const std::string& out_dir, HostSpeed& speed)
      : def_(def),
        experiment_(make_experiment(def, seed)),
        jobs_(moca::sim::cross_product(def.mixes,
                                       moca::sim::all_system_choices(),
                                       experiment_)),
        journal_path_(out_dir + "/journal.jsonl"),
        speed_(speed) {}

  /// One repetition; spans are recorded only when `tracer` is set. Host
  /// speed is sampled before the profile-db stage, between it and the
  /// sweep, and after the reports, outside every timed interval.
  Pass run_pass(Tracer* tracer) const {
    Pass pass;
    Span root(tracer, "workload", "bench", kNoSpan);
    pass.root = root.id();
    const std::size_t first_sample = speed_.samples();
    sample_speed(tracer, root.id());
    moca::sim::SweepRunner runner(def_.workers);
    Clock::time_point start = Clock::now();
    {
      Span setup(tracer, "build_profile_db", "sim", root.id());
      pass.db = tracer == nullptr
                    ? moca::sim::build_profile_db(def_.profile_apps,
                                                  experiment_, runner)
                    : traced_profile_db(runner, *tracer, setup.id());
    }
    const double setup_s = seconds_since(start);
    sample_speed(tracer, root.id());
    const std::size_t sweep_sample = speed_.samples();
    start = Clock::now();
    if (def_.supervised) {
      Span sweep(tracer, "SweepSupervisor::run", "sim", root.id());
      moca::sim::SweepSupervisor supervisor(runner,
                                            supervisor_options(false));
      moca::sim::SweepSupervisor::Result result =
          supervisor.run(jobs_, pass.db);
      pass.outcomes = std::move(result.outcomes);
      pass.merged = std::move(result.report);
    } else {
      Span sweep(tracer, "SweepRunner::run", "sim", root.id());
      // One worker runs the cells on this thread, one after another, and
      // flushes the log after each: host speed is sampled between cells,
      // on this thread alone, and the samples' time leaves the sweep's.
      SampleOnFlush sink(speed_, tracer, sweep.id());
      std::ostream log(&sink);
      if (def_.workers == 1) runner.set_log(&log);
      pass.outcomes = runner.run(jobs_, pass.db);
      runner.set_log(nullptr);
    }
    const double sweep_s =
        seconds_since(start) - speed_.seconds_since(sweep_sample);
    start = Clock::now();
    pass.reports.resize(pass.outcomes.size());
    for (std::size_t i = 0; i < pass.outcomes.size(); ++i) {
      Span report(tracer, "to_json", "sim", root.id(),
                  static_cast<std::int64_t>(i));
      if (pass.outcomes[i].ok) {
        pass.reports[i] = moca::sim::to_json(pass.outcomes[i].result);
      }
    }
    const double reports_s = seconds_since(start);
    sample_speed(tracer, root.id());
    pass.kernel_mean_s = speed_.seconds_since(first_sample) /
                         static_cast<double>(speed_.samples() - first_sample);
    pass.wall_s = setup_s + sweep_s + reports_s;
    pass.setup_s = setup_s;
    pass.sweep_s = sweep_s;
    if (def_.supervised) {
      pass.journal_bytes = std::filesystem::file_size(journal_path_);
    }
    return pass;
  }

  /// Checks every cell of `pass`, and that it repeats `reference` exactly.
  void check_pass(const Pass& pass, const Pass* reference,
                  const std::string& context, Tally& tally) const {
    std::vector<std::string> shared;
    if (reference != nullptr && !same_db(pass.db, reference->db)) {
      shared.push_back("profile db differs from the first repetition");
    }
    if (def_.supervised) {
      if (!pass.merged.starts_with(schema_prefix())) {
        shared.push_back("merged report schema_version is not " +
                         std::to_string(moca::sim::kReportSchemaVersion));
      }
      if (reference != nullptr && pass.merged != reference->merged) {
        shared.push_back("merged report differs from the first repetition");
      }
    }
    for (std::size_t i = 0; i < pass.outcomes.size(); ++i) {
      std::vector<std::string> issues = shared;
      for (std::string& issue :
           cell_issues(pass.outcomes[i], pass.reports[i])) {
        issues.push_back(std::move(issue));
      }
      if (reference != nullptr && pass.reports[i] != reference->reports[i]) {
        issues.push_back("report differs from the first repetition");
      }
      tally.cell(context, i, issues);
    }
  }

  /// Rebuilds every cell of `reference` through the public System
  /// constructor with a counting policy; each rebuilt report must match
  /// the swept cell's bytes.
  Split split_cells(const Pass& reference, Tracer& tracer,
                    Tally& tally) const {
    Split split;
    Span root(&tracer, "cells_rebuilt", "bench", kNoSpan);
    split.root = root.id();
    std::vector<std::string> outcome_jsons;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const moca::sim::SweepJob& job = jobs_[i];
      const auto cell = static_cast<std::int64_t>(i);
      std::unique_ptr<moca::sim::System> system;
      {
        Span span(&tracer, "System", "sim", root.id(), cell);
        system = std::make_unique<moca::sim::System>(
            moca::sim::memsys_for(job.choice, job.experiment),
            std::make_unique<CountingPolicy>(
                moca::sim::make_policy(job.choice), split.policy),
            cell_apps(job, reference.db), cell_options(job, i));
      }
      SweepOutcome outcome;
      {
        Span span(&tracer, "System::run", "sim", root.id(), cell);
        const std::uint64_t allocs = thread_heap_allocs();
        outcome.result = system->run();
        split.run_allocs += thread_heap_allocs() - allocs;
      }
      system.reset();
      std::string report;
      {
        Span span(&tracer, "to_json", "sim", root.id(), cell);
        report = moca::sim::to_json(outcome.result);
      }
      split.report_bytes += report.size();
      std::vector<std::string> issues;
      if (report != reference.reports[i]) {
        issues.push_back("rebuilt report differs from the swept cell");
      }
      if (def_.supervised) {
        const SweepOutcome& swept = reference.outcomes[i];
        outcome.job_id = swept.job_id;
        outcome.label = swept.label;
        outcome.ok = swept.ok;
        outcome.kind = swept.kind;
        outcome.attempts = swept.attempts;
        Span span(&tracer, "to_deterministic_json", "sim", root.id(), cell);
        outcome_jsons.push_back(moca::sim::to_deterministic_json(outcome));
        split.report_bytes += outcome_jsons.back().size();
      }
      tally.cell("rebuilt", i, issues);
    }
    if (def_.supervised) {
      std::string merged;
      {
        Span span(&tracer, "sweep_report_json", "sim", root.id());
        merged = moca::sim::sweep_report_json(outcome_jsons);
      }
      split.report_bytes += merged.size();
      std::vector<std::string> issues;
      if (merged != reference.merged) {
        issues.push_back("rebuilt merged report differs from the swept one");
      }
      tally.cell("rebuilt merged report", 0, issues);
    }
    return split;
  }

  /// Extra host milliseconds per cell that running each cell in a forked
  /// child costs: alternating in-process and isolated supervised sweeps of
  /// the workload's cells, median against median. Every isolated sweep
  /// must merge to the in-process bytes.
  double isolation_overhead_ms_per_cell(const Pass& reference,
                                        double seconds, Tracer& tracer,
                                        Tally& tally) const {
    Span root(&tracer, "isolation_probe", "bench", kNoSpan);
    std::vector<double> in_process;
    std::vector<double> isolated;
    std::string first_report;
    const Clock::time_point probe_start = Clock::now();
    while (isolated.empty() ||
           seconds_since(probe_start) < kIsolationShare * seconds) {
      for (const bool isolate : {false, true}) {
        moca::sim::SweepRunner runner(def_.workers);
        const Clock::time_point start = Clock::now();
        moca::sim::SweepSupervisor::Result result;
        {
          Span span(&tracer,
                    isolate ? "SweepSupervisor::run[isolate]"
                            : "SweepSupervisor::run",
                    "sim", root.id());
          moca::sim::SweepSupervisor supervisor(runner,
                                                supervisor_options(isolate));
          result = supervisor.run(jobs_, reference.db);
        }
        (isolate ? isolated : in_process).push_back(seconds_since(start));
        if (first_report.empty()) first_report = result.report;
        const bool same =
            result.report == first_report &&
            (!def_.supervised || result.report == reference.merged);
        for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
          std::vector<std::string> issues = outcome_issues(result.outcomes[i]);
          if (!same) issues.push_back("merged report differs");
          tally.cell(isolate ? "isolated" : "supervised in-process", i,
                     issues);
        }
      }
    }
    return (median(isolated) - median(in_process)) * 1e3 /
           static_cast<double>(jobs_.size());
  }

  /// Pulls every cell's micro-op streams through AppStream alone, as many
  /// ops per core as the cell's warm-up plus measured window.
  StreamDrive drive_cells(const Pass& reference, Tracer& tracer) const {
    Span root(&tracer, "appstream_alone", "bench", kNoSpan);
    StreamDrive total;
    const std::uint64_t ops =
        experiment_.effective_warmup() + experiment_.instructions;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      Span span(&tracer, "AppStream::next", "workload", root.id(),
                static_cast<std::int64_t>(i));
      const StreamDrive d = drive_streams(cell_apps(jobs_[i], reference.db),
                                          ops);
      total.calls += d.calls;
      total.seconds += d.seconds;
      total.checksum += d.checksum;
    }
    return total;
  }

  [[nodiscard]] const HostSpeed& speed() const { return speed_; }

  /// Samples host speed under a span of its own, so traced passes keep
  /// the kernel's time apart from every layer's.
  void sample_speed(Tracer* tracer, SpanId parent) const {
    Span span(tracer, "host_speed", "bench", parent);
    speed_.sample();
  }

 private:
  static std::string schema_prefix() {
    return "{\"schema_version\":" +
           std::to_string(moca::sim::kReportSchemaVersion) + ",";
  }

  moca::sim::SupervisorOptions supervisor_options(bool isolate) const {
    moca::sim::SupervisorOptions options;
    options.timeout_ms = kCellDeadlineMs;
    options.journal_path = journal_path_;
    options.isolate = isolate;
    return options;
  }

  /// build_profile_db's fan-out, with a span around each call.
  ProfileDb traced_profile_db(moca::sim::SweepRunner& runner, Tracer& tracer,
                              SpanId parent) const {
    const std::vector<std::string>& names = def_.profile_apps;
    std::vector<moca::core::ClassifiedApp> classes(names.size());
    runner.for_each_index(names.size(), [&](std::size_t i) {
      const auto cell = static_cast<std::int64_t>(i);
      moca::core::AppProfile profile;
      {
        Span span(&tracer, "profile_app", "sim", parent, cell);
        profile = moca::sim::profile_app(
            moca::workload::app_by_name(names[i]), experiment_);
      }
      Span span(&tracer, "classify_for_runtime", "moca", parent, cell);
      classes[i] = moca::sim::classify_for_runtime(profile, experiment_);
    });
    ProfileDb db;
    for (std::size_t i = 0; i < names.size(); ++i) {
      db.emplace(names[i], std::move(classes[i]));
    }
    return db;
  }

  const WorkloadDef& def_;
  moca::sim::Experiment experiment_;
  std::vector<moca::sim::SweepJob> jobs_;
  std::string journal_path_;
  HostSpeed& speed_;
};

/// Metrics in the order they were added, each value already rendered
/// with every digit it has.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    char buf[64];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
    entries_.push_back({name, std::string(buf, end), unit});
  }
  void count(const std::string& name, std::uint64_t value,
             const std::string& unit = "count") {
    entries_.push_back({name, std::to_string(value), unit});
  }

  /// {"name":{"value":v,"unit":"u"},...}
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (const Entry& e : entries_) {
      if (out.size() > 1) out += ',';
      out += "\"" + e.name + "\":{\"value\":" + e.value + ",\"unit\":\"" +
             e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    std::string value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

void print_result(const Tally& tally, const Metrics& metrics) {
  std::cout << "{\"correct\":" << (tally.failed == 0 ? "true" : "false")
            << ",\"attempted\":" << tally.attempted
            << ",\"failed\":" << tally.failed
            << ",\"metrics\":" << metrics.json() << '}' << std::endl;
}

/// Simulated work counts of one repetition, summed over its cells. These
/// are deterministic for a seed and exclude the warm-up window. `run_s` is
/// the host time System::run took for the same cells.
void add_count_metrics(const Pass& pass, double run_s, Metrics& m) {
  std::uint64_t cycles = 0, committed = 0, stall = 0, tlb_misses = 0,
                mshr_reject = 0;
  std::uint64_t l1 = 0, l2 = 0, llc_misses = 0, writebacks = 0, loads = 0,
                l1_load_hits = 0;
  std::uint64_t dram_accesses = 0, row_hits = 0, refreshes = 0;
  std::int64_t queue_ps = 0, service_ps = 0, bus_ps = 0;
  std::uint64_t faults = 0, fallbacks = 0, last_resort = 0;
  std::uint64_t epochs = 0, moved_pages = 0, ping_pong = 0;
  std::uint64_t rows = 0, attempts = 0;
  std::int64_t exec_ps = 0, mem_ps = 0;
  for (const SweepOutcome& o : pass.outcomes) {
    const moca::sim::RunResult& r = o.result;
    attempts += o.attempts;
    for (const moca::sim::CoreResult& c : r.cores) {
      cycles += c.core.cycles;
      committed += c.core.committed;
      stall += c.core.rob_head_stall_cycles;
      tlb_misses += c.core.tlb_misses;
      mshr_reject += c.core.mshr_reject_cycles;
      l1 += c.hierarchy.l1_accesses;
      l2 += c.hierarchy.l2_accesses;
      llc_misses += c.hierarchy.llc_misses;
      writebacks += c.hierarchy.writebacks;
      loads += c.hierarchy.loads;
      l1_load_hits += c.hierarchy.l1_load_hits;
    }
    for (const moca::sim::ModuleResult& mod : r.modules) {
      dram_accesses += mod.stats.reads + mod.stats.writes;
      row_hits += mod.stats.row_hits;
      refreshes += mod.stats.refreshes;
      queue_ps += mod.stats.queue_time_ps;
      service_ps += mod.stats.service_time_ps;
      bus_ps += mod.stats.bus_busy_ps;
    }
    faults += r.os_stats.page_faults;
    fallbacks += r.os_stats.fallback_allocations;
    last_resort += r.os_stats.last_resort_allocations;
    epochs += r.adaptive.epochs;
    moved_pages += r.adaptive.moved_pages;
    ping_pong += r.adaptive.ping_pong_moves;
    rows += r.observability.rows.size();
    exec_ps += r.exec_time;
    mem_ps += r.total_mem_access_time;
  }
  const auto d = [](auto v) { return static_cast<double>(v); };
  m.count("sim.cells", pass.outcomes.size());
  m.count("sim.attempts", attempts);
  m.count("sim.timeseries_rows", rows);
  m.count("sim.journal_bytes", pass.journal_bytes, "bytes");
  m.count("sim.exec_time_ps", static_cast<std::uint64_t>(exec_ps), "ps");
  m.count("sim.mem_access_time_ps", static_cast<std::uint64_t>(mem_ps), "ps");
  m.count("cpu.cycles", cycles);
  m.count("cpu.committed", committed);
  m.count("cpu.rob_head_stall_cycles", stall);
  m.add("cpu.stall_frac", ratio(d(stall), d(cycles)), "frac");
  m.add("cpu.run_ns_per_cycle", ratio(run_s * 1e9, d(cycles)), "ns");
  m.count("cpu.tlb_misses", tlb_misses);
  m.count("cpu.mshr_reject_cycles", mshr_reject);
  m.count("cache.l1_accesses", l1);
  m.count("cache.l2_accesses", l2);
  m.count("cache.llc_misses", llc_misses);
  m.count("cache.writebacks", writebacks);
  m.add("cache.l1_hit_frac", ratio(d(l1_load_hits), d(loads)), "frac");
  m.count("dram.accesses", dram_accesses);
  m.add("dram.row_hit_frac", ratio(d(row_hits), d(dram_accesses)), "frac");
  m.count("dram.queue_time_ps", static_cast<std::uint64_t>(queue_ps), "ps");
  m.count("dram.service_time_ps", static_cast<std::uint64_t>(service_ps),
          "ps");
  m.count("dram.bus_busy_ps", static_cast<std::uint64_t>(bus_ps), "ps");
  m.count("dram.refreshes", refreshes);
  m.count("os.page_faults", faults);
  m.count("os.fallback_allocations", fallbacks);
  m.count("os.last_resort_allocations", last_resort);
  std::uint64_t objects = 0;
  for (const auto& [name, classes] : pass.db) {
    objects += classes.object_class.size();
  }
  m.count("moca.objects", objects);
  m.count("moca.adaptive_epochs", epochs);
  m.count("moca.adaptive_moved_pages", moved_pages);
  m.count("moca.adaptive_ping_pong", ping_pong);
}

/// --trace 0: repeat the untraced workload for `seconds`.
Metrics run_untraced(const Bench& bench, double seconds, Tally& tally) {
  const Clock::time_point start = Clock::now();
  std::vector<double> wall;
  std::vector<double> setup;
  std::vector<double> sweep;
  const auto record = [&](const Pass& pass) {
    std::cerr << "moca_perfbench: pass " << wall.size() << " host wall_s "
              << pass.wall_s << " setup_s " << pass.setup_s << " kernel_ms "
              << pass.kernel_mean_s * 1e3 << '\n';
    wall.push_back(pass.wall_s);
    setup.push_back(pass.setup_s);
    sweep.push_back(pass.sweep_s);
  };
  const Pass reference = bench.run_pass(nullptr);
  bench.check_pass(reference, nullptr, "pass 0", tally);
  record(reference);
  while (seconds_since(start) < seconds ||
         static_cast<int>(wall.size()) < kMinPasses) {
    const Pass pass = bench.run_pass(nullptr);
    bench.check_pass(pass, &reference, "pass " + std::to_string(wall.size()),
                     tally);
    record(pass);
  }
  const double factor = bench.speed().factor();
  std::cerr << "moca_perfbench: speed factor " << factor << " over "
            << bench.speed().samples() << " samples\n";
  Metrics m;
  m.add("wall_s", trimmed_mean(wall) * factor, "s");
  m.add("setup_s", trimmed_mean(setup) * factor, "s");
  m.add("sim_instr_per_s",
        ratio(static_cast<double>(reference.instructions()),
              trimmed_mean(sweep) * factor),
        "1/s");
  m.add("peak_rss_mib", peak_rss_mib() - bench.speed().tables_mib(), "MiB");
  return m;
}

/// Median over traced passes of one span name's total or self time.
double span_median(const std::vector<SpanRecord>& spans,
                   const std::vector<SpanId>& roots, const std::string& name,
                   bool self) {
  std::vector<double> values;
  for (const SpanId root : roots) {
    const std::map<std::string, SelfTime> times = self_times(spans, root);
    const auto it = times.find(name);
    values.push_back(it == times.end()
                         ? 0.0
                         : (self ? it->second.self_s : it->second.total_s));
  }
  return median(values);
}

/// --trace 1: traced and untraced repetitions alternate for `seconds`,
/// then the rebuild, isolation and workload-generator probes run once.
Metrics run_traced(const Bench& bench, double seconds,
                   const std::string& out_dir, Tally& tally) {
  Tracer tracer;
  const Clock::time_point start = Clock::now();
  const Pass reference = bench.run_pass(nullptr);
  bench.check_pass(reference, nullptr, "untraced pass 0", tally);
  std::vector<double> untraced_wall{reference.wall_s};
  std::vector<double> traced_wall;
  std::vector<SpanId> traced_roots;
  while (seconds_since(start) < seconds ||
         static_cast<int>(traced_wall.size()) < kMinPasses - 1) {
    const Pass traced = bench.run_pass(&tracer);
    bench.check_pass(traced, &reference,
                     "traced pass " + std::to_string(traced_wall.size()),
                     tally);
    traced_wall.push_back(traced.wall_s);
    traced_roots.push_back(traced.root);
    const Pass untraced = bench.run_pass(nullptr);
    bench.check_pass(untraced, &reference,
                     "untraced pass " + std::to_string(untraced_wall.size()),
                     tally);
    untraced_wall.push_back(untraced.wall_s);
  }
  bench.sample_speed(nullptr, kNoSpan);
  const Split split = bench.split_cells(reference, tracer, tally);
  bench.sample_speed(nullptr, kNoSpan);
  const double isolation_ms =
      bench.isolation_overhead_ms_per_cell(reference, seconds, tracer, tally);
  bench.sample_speed(nullptr, kNoSpan);
  const StreamDrive drive = bench.drive_cells(reference, tracer);
  bench.sample_speed(nullptr, kNoSpan);
  // Every host time below is in reference seconds (hostspeed.h).
  const double factor = bench.speed().factor();

  const std::vector<SpanRecord> spans = tracer.spans();
  std::ofstream(out_dir + "/trace.json") << chrome_trace(spans) << '\n';
  std::ofstream(out_dir + "/self_time.tsv") << self_time_table(spans);

  const std::map<std::string, SelfTime> rebuilt =
      self_times(spans, split.root);
  const auto total_of = [&](const std::string& name) {
    const auto it = rebuilt.find(name);
    return it == rebuilt.end() ? 0.0 : it->second.total_s * factor;
  };
  const auto traced_median = [&](const std::string& name, bool self) {
    return span_median(spans, traced_roots, name, self) * factor;
  };
  const double run_s = total_of("System::run");
  const auto committed = static_cast<double>(reference.instructions());
  const double next_ns =
      ratio(drive.seconds * 1e9, static_cast<double>(drive.calls)) * factor;

  Metrics m;
  m.add("sim.run_s", run_s, "s");
  m.add("sim.heap_allocs_per_kinstr",
        ratio(static_cast<double>(split.run_allocs) * 1000.0, committed),
        "count/kinstr");
  m.add("sim.build_s", total_of("System"), "s");
  m.add("sim.report_s",
        total_of("to_json") + total_of("to_deterministic_json") +
            total_of("sweep_report_json"),
        "s");
  m.count("sim.report_bytes", split.report_bytes, "bytes");
  m.add("sim.isolation_overhead_ms_per_cell", isolation_ms * factor, "ms");
  m.add("sim.trace_overhead_frac",
        ratio(trimmed_mean(traced_wall), trimmed_mean(untraced_wall)) - 1.0,
        "frac");
  m.count("os.policy_calls", split.policy.calls);
  m.add("os.policy_s", static_cast<double>(split.policy.ns) * 1e-9 * factor,
        "s");
  m.add("moca.classify_s", traced_median("classify_for_runtime", false), "s");
  m.add("workload.next_ns", next_ns, "ns");
  m.add("workload.est_s", next_ns * 1e-9 * committed, "s");
  m.add("trace.wall_s", trimmed_mean(traced_wall) * factor, "s");
  m.add("trace.uncovered_s", traced_median("workload", true), "s");
  m.add("trace.self_s.build_profile_db",
        traced_median("build_profile_db", true), "s");
  m.add("trace.self_s.profile_app", traced_median("profile_app", true), "s");
  m.add("trace.self_s.classify_for_runtime",
        traced_median("classify_for_runtime", true), "s");
  m.add("trace.self_s.sweep_run",
        traced_median("SweepRunner::run", true) +
            traced_median("SweepSupervisor::run", true),
        "s");
  m.add("trace.self_s.to_json", traced_median("to_json", true), "s");
  m.add("host.speed_factor", factor, "x");
  add_count_metrics(reference, run_s, m);
  std::cerr << "moca_perfbench: " << untraced_wall.size() << " untraced and "
            << traced_wall.size() << " traced repetitions; stream checksum "
            << drive.checksum << "; speed factor " << factor << " over "
            << bench.speed().samples() << " samples\n";
  return m;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    (void)thread_tid();  // the main thread takes trace tid 1
    std::filesystem::create_directories(args.out_dir);
    const WorkloadDef& def = *find_workload(args.workload);
    HostSpeed speed(def.workers);
    const Bench bench(def, args.seed, args.out_dir, speed);
    Tally tally;
    const Metrics metrics =
        args.trace ? run_traced(bench, args.seconds, args.out_dir, tally)
                   : run_untraced(bench, args.seconds, tally);
    print_result(tally, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "moca_perfbench: error: " << e.what() << '\n';
    return 1;
  }
}
