// Tests for the observability subsystem: StatRegistry/EpochSeries math,
// Chrome-trace emission, epoch sampling through System::run and its
// determinism across sweep worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/chrome_trace.h"
#include "common/stat_registry.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "sim/sweep.h"

namespace moca {
namespace {

TEST(StatRegistry, RegistersAllKinds) {
  StatRegistry reg;
  std::uint64_t hits = 0;
  reg.counter("a/hits", &hits);
  reg.counter("a/misses", [] { return 2.0; });
  reg.gauge("a/occupancy", [] { return 7.0; });
  reg.rate("a/bw", [] { return 640.0; }, 64.0);
  reg.ratio("a/hit_rate", "a/hits", "a/misses");
  EXPECT_EQ(reg.size(), 5u);
  EXPECT_TRUE(reg.contains("a/bw"));
  EXPECT_FALSE(reg.contains("a/nope"));
}

TEST(StatRegistry, PathsAreSorted) {
  StatRegistry reg;
  reg.counter("z/last", [] { return 0.0; });
  reg.counter("a/first", [] { return 0.0; });
  reg.counter("m/middle", [] { return 0.0; });
  const std::vector<std::string> paths = reg.paths();
  EXPECT_TRUE(std::is_sorted(paths.begin(), paths.end()));
  EXPECT_EQ(paths.front(), "a/first");
  EXPECT_EQ(paths.back(), "z/last");
}

TEST(StatRegistry, DuplicatePathThrows) {
  StatRegistry reg;
  reg.counter("core0/instructions", [] { return 0.0; });
  EXPECT_THROW(reg.counter("core0/instructions", [] { return 0.0; }),
               CheckError);
  EXPECT_THROW(reg.gauge("core0/instructions", [] { return 0.0; }),
               CheckError);
}

TEST(EpochSeries, CounterDeltasAndGaugeLevels) {
  StatRegistry reg;
  std::uint64_t count = 10;
  double level = 3.0;
  reg.counter("c", &count);
  reg.gauge("g", [&] { return level; });

  EpochSeries series(reg);
  series.sample(0, 1'000'000, 100);  // baseline-inclusive first row
  count = 25;
  level = 8.0;
  series.sample(1, 2'000'000, 200);

  ASSERT_EQ(series.rows().size(), 2u);
  ASSERT_EQ(series.columns(), (std::vector<std::string>{"c", "g"}));
  EXPECT_DOUBLE_EQ(series.rows()[0].values[0], 10.0);  // delta from 0
  EXPECT_DOUBLE_EQ(series.rows()[0].values[1], 3.0);
  EXPECT_DOUBLE_EQ(series.rows()[1].values[0], 15.0);  // 25 - 10
  EXPECT_DOUBLE_EQ(series.rows()[1].values[1], 8.0);
  EXPECT_EQ(series.rows()[1].epoch, 1u);
  EXPECT_EQ(series.rows()[1].instructions, 200u);
}

TEST(EpochSeries, RateIsDeltaPerSimulatedSecond) {
  StatRegistry reg;
  double bytes = 0.0;
  reg.rate("bw", [&] { return bytes; });

  EpochSeries series(reg);
  bytes = 500.0;
  // 1 ms of simulated time: 500 bytes / 1e-3 s = 5e5 bytes/s.
  series.sample(0, 1'000'000'000, 1);
  ASSERT_EQ(series.rows().size(), 1u);
  EXPECT_DOUBLE_EQ(series.rows()[0].values[0], 5e5);
}

TEST(EpochSeries, RatioDividesOperandDeltas) {
  StatRegistry reg;
  std::uint64_t instr = 0;
  std::uint64_t cycles = 0;
  reg.counter("instr", &instr);
  reg.counter("cycles", &cycles);
  reg.ratio("ipc", "instr", "cycles");
  reg.ratio("cpki", "cycles", "instr", 1000.0);

  EpochSeries series(reg);
  instr = 400;
  cycles = 800;
  series.sample(0, 1'000'000, instr);
  instr = 1000;
  cycles = 1200;
  series.sample(1, 2'000'000, instr);

  const auto& cols = series.columns();
  const auto ipc = static_cast<std::size_t>(
      std::find(cols.begin(), cols.end(), "ipc") - cols.begin());
  const auto cpki = static_cast<std::size_t>(
      std::find(cols.begin(), cols.end(), "cpki") - cols.begin());
  EXPECT_DOUBLE_EQ(series.rows()[0].values[ipc], 0.5);
  EXPECT_DOUBLE_EQ(series.rows()[1].values[ipc], 1.5);  // 600/400
  EXPECT_DOUBLE_EQ(series.rows()[1].values[cpki], 1000.0 * 400.0 / 600.0);
}

TEST(EpochSeries, MissingRatioOperandThrows) {
  StatRegistry reg;
  reg.counter("num", [] { return 0.0; });
  reg.ratio("bad", "num", "no_such_path");
  EXPECT_THROW((EpochSeries{reg}), CheckError);
}

TEST(EpochSeries, ZeroDenominatorAndZeroDtYieldZero) {
  StatRegistry reg;
  std::uint64_t num = 0;
  std::uint64_t den = 0;
  reg.counter("num", &num);
  reg.counter("den", &den);
  reg.ratio("r", "num", "den");
  reg.rate("rate", [&] { return static_cast<double>(num); });

  EpochSeries series(reg);
  num = 5;
  series.sample(0, 0, 0);  // dt == 0 and delta(den) == 0
  for (const double v : series.rows()[0].values) {
    if (v != 5.0) {
      EXPECT_DOUBLE_EQ(v, 0.0);  // ratio and rate guard
    }
  }
}

TEST(ChromeTraceJson, EmitsWellFormedEvents) {
  ChromeTrace trace;
  trace.instant("warmup_end", "phase", 2'000'000);
  trace.complete("measured", "phase", 2'000'000, 5'000'000);
  const std::string json = chrome_trace_json(trace.events());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"warmup_end\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Timestamps are microseconds: 2'000'000 ps -> 2 us.
  EXPECT_NE(json.find("\"ts\":2"), std::string::npos);
}

TEST(ChromeTraceJson, TimestampsAreExactMicroseconds) {
  // 8 ps apart past 1 s of trace time: 6 significant digits would print
  // both as 1234.57.
  ChromeTrace trace;
  trace.instant("a", "t", 1'234'567'891);
  trace.instant("b", "t", 1'234'567'899);
  trace.complete("c", "t", 5, 10'000'000'000'001);
  EXPECT_EQ(chrome_trace_json(trace.events()),
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":["
            "{\"name\":\"a\",\"cat\":\"t\",\"ph\":\"i\",\"ts\":1234.567891,"
            "\"s\":\"p\",\"pid\":0,\"tid\":0},"
            "{\"name\":\"b\",\"cat\":\"t\",\"ph\":\"i\",\"ts\":1234.567899,"
            "\"s\":\"p\",\"pid\":0,\"tid\":0},"
            "{\"name\":\"c\",\"cat\":\"t\",\"ph\":\"X\",\"ts\":0.000005,"
            "\"dur\":10000000.000001,\"pid\":0,\"tid\":0}]}");
}

sim::Experiment sampled_experiment(std::uint64_t instructions,
                                   std::uint64_t epoch, bool trace) {
  sim::Experiment e;
  e.instructions = instructions;
  e.observability.epoch_instructions = epoch;
  e.observability.trace = trace;
  return e;
}

TEST(Observability, RunProducesTimeSeriesWithExpectedColumns) {
  const std::map<std::string, core::ClassifiedApp> db;
  const sim::RunResult r = sim::run_single(
      "gcc", sim::SystemChoice::kHomogenDdr3, db,
      sampled_experiment(60'000, 10'000, /*trace=*/true));
  const sim::ObservabilityResult& obs = r.observability;
  ASSERT_TRUE(obs.has_timeseries());
  EXPECT_EQ(obs.epoch_instructions, 10'000u);
  EXPECT_GT(obs.warmup_end_ps, 0);

  const auto has = [&](const std::string& path) {
    return std::find(obs.columns.begin(), obs.columns.end(), path) !=
           obs.columns.end();
  };
  EXPECT_TRUE(has("core0/ipc"));
  EXPECT_TRUE(has("core0/mpki"));
  EXPECT_TRUE(has("core0/instructions"));
  EXPECT_TRUE(has("core0/cache/llc_misses"));
  EXPECT_TRUE(has("mem/DDR3-2GB/bandwidth_bytes_per_s"));
  EXPECT_TRUE(has("mem/DDR3-2GB/frames_used"));
  EXPECT_TRUE(has("os/page_faults"));
  EXPECT_TRUE(has("alloc/registrations"));
  EXPECT_TRUE(std::is_sorted(obs.columns.begin(), obs.columns.end()));
  EXPECT_EQ(obs.columns.size(), obs.kinds.size());

  ASSERT_FALSE(obs.rows.empty());
  for (std::size_t i = 0; i < obs.rows.size(); ++i) {
    EXPECT_EQ(obs.rows[i].epoch, i);
    EXPECT_EQ(obs.rows[i].values.size(), obs.columns.size());
    if (i > 0) {
      EXPECT_GT(obs.rows[i].instructions, obs.rows[i - 1].instructions);
      EXPECT_GT(obs.rows[i].time_ps, obs.rows[i - 1].time_ps);
    }
  }
  // The final row closes the measured phase: warmup + measured committed.
  EXPECT_GE(obs.rows.back().instructions, 60'000u);

  // Trace carries the phase markers.
  const auto event_named = [&](const std::string& name) {
    for (const ChromeTraceEvent& ev : obs.trace) {
      if (ev.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(event_named("warmup_end"));
  EXPECT_TRUE(event_named("measured"));
  EXPECT_TRUE(event_named("epoch"));
}

TEST(Observability, DisabledRunsCarryNothing) {
  const std::map<std::string, core::ClassifiedApp> db;
  sim::Experiment e;
  e.instructions = 40'000;
  const sim::RunResult r =
      sim::run_single("gcc", sim::SystemChoice::kHomogenDdr3, db, e);
  EXPECT_FALSE(r.observability.has_timeseries());
  EXPECT_TRUE(r.observability.trace.empty());
  EXPECT_EQ(sim::to_json(r).find("\"timeseries\""), std::string::npos);
}

TEST(Observability, SamplingDoesNotPerturbSimulatedMetrics) {
  const std::map<std::string, core::ClassifiedApp> db;
  sim::Experiment plain;
  plain.instructions = 50'000;
  const sim::RunResult off =
      sim::run_single("mcf", sim::SystemChoice::kHomogenDdr3, db, plain);
  const sim::RunResult on = sim::run_single(
      "mcf", sim::SystemChoice::kHomogenDdr3, db,
      sampled_experiment(50'000, 8'000, /*trace=*/true));
  // Probes are read-only, so the simulation is bit-identical either way.
  EXPECT_EQ(off.exec_time, on.exec_time);
  EXPECT_EQ(off.total_instructions, on.total_instructions);
  EXPECT_EQ(off.total_llc_misses, on.total_llc_misses);
  EXPECT_EQ(off.os_stats.page_faults, on.os_stats.page_faults);
}

TEST(Observability, ReportRoundTripsTimeSeries) {
  const std::map<std::string, core::ClassifiedApp> db;
  const sim::RunResult r = sim::run_single(
      "gcc", sim::SystemChoice::kHomogenDdr3, db,
      sampled_experiment(40'000, 10'000, /*trace=*/false));
  const std::string json = sim::to_json(r);
  EXPECT_NE(json.find("\"schema_version\":4"), std::string::npos);
  EXPECT_NE(json.find("\"timeseries\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch_instructions\":10000"), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"core0/ipc\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"ratio\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\":["), std::string::npos);
}

TEST(Observability, TimeSeriesIsIdenticalForAnyWorkerCount) {
  const std::map<std::string, core::ClassifiedApp> db;
  std::vector<sim::SweepJob> jobs;
  for (const std::string app : {"gcc", "mcf", "milc"}) {
    sim::SweepJob job;
    job.apps = {app};
    job.choice = sim::SystemChoice::kHomogenDdr3;
    job.experiment = sampled_experiment(30'000, 6'000, /*trace=*/true);
    job.label = app;
    jobs.push_back(std::move(job));
  }
  sim::SweepRunner one(1);
  sim::SweepRunner many(3);
  const auto a = one.run(jobs, db);
  const auto b = many.run(jobs, db);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok);
    ASSERT_TRUE(b[i].ok);
    EXPECT_EQ(sim::to_json(a[i].result), sim::to_json(b[i].result));
    EXPECT_EQ(chrome_trace_json(a[i].result.observability.trace),
              chrome_trace_json(b[i].result.observability.trace));
  }
}

TEST(Observability, MigrationRunRegistersDaemonStats) {
  sim::Experiment e = sampled_experiment(60'000, 10'000, /*trace=*/true);
  os::MigrationConfig config;
  config.epoch_cycles = 20'000;
  const sim::RunResult r =
      sim::run_workload_with_migration({"mcf"}, e, config);
  const auto& cols = r.observability.columns;
  EXPECT_NE(std::find(cols.begin(), cols.end(), "migration/promotions"),
            cols.end());
  EXPECT_NE(std::find(cols.begin(), cols.end(), "migration/tracked_pages"),
            cols.end());
}

}  // namespace
}  // namespace moca
