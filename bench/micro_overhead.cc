// Sec. IV-E: profiling overhead. The paper measures 0.59% average slowdown
// with the profiling shim enabled. Our analog: google-benchmark timings of
// (a) the profiler's per-event hot paths, (b) the modified allocator vs a
// bare bump allocation, and (c) a full simulation with profiling hooks
// installed vs detached.
#include <benchmark/benchmark.h>

#include <chrono>

#include "moca/allocator.h"
#include "moca/policies.h"
#include "moca/profiler.h"
#include "sim/runner.h"
#include "workload/suite.h"

namespace {

using namespace moca;

void BM_ProfilerOnLlcMiss(benchmark::State& state) {
  core::ObjectRegistry registry;
  const std::uint64_t id =
      registry.add(1, 0, 0x1000, 4096, os::MemClass::kLatency, "x");
  core::Profiler profiler(registry);
  cache::AccessContext ctx;
  ctx.object = id;
  for (auto _ : state) {
    profiler.on_llc_miss(ctx);
  }
}
BENCHMARK(BM_ProfilerOnLlcMiss);

void BM_ProfilerOnHeadStall(benchmark::State& state) {
  core::ObjectRegistry registry;
  const std::uint64_t id =
      registry.add(1, 0, 0x1000, 4096, os::MemClass::kLatency, "x");
  core::Profiler profiler(registry);
  for (auto _ : state) {
    profiler.on_head_stall(0, id, 1);
  }
}
BENCHMARK(BM_ProfilerOnHeadStall);

void BM_ModifiedMalloc(benchmark::State& state) {
  os::AddressSpace space(0);
  core::ObjectRegistry registry;
  core::MocaAllocator alloc(space, registry, nullptr);
  const std::uint64_t stack_frames[2] = {0x400123, 0x400456};
  std::uint64_t site = 0;
  for (auto _ : state) {
    const std::uint64_t frames[2] = {stack_frames[0] + site++,
                                     stack_frames[1]};
    benchmark::DoNotOptimize(alloc.malloc_named(frames, 64, ""));
  }
}
BENCHMARK(BM_ModifiedMalloc);

void BM_BareBumpAlloc(benchmark::State& state) {
  os::AddressSpace space(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.alloc_heap(os::Segment::kHeapPow, 64));
  }
}
BENCHMARK(BM_BareBumpAlloc);

/// One full-system simulation (the Sec. IV-E overhead workload).
void run_system(bool with_profiling, std::uint64_t epoch_instructions = 0,
                bool with_adaptive = false) {
  sim::SystemOptions options;
  options.instructions_per_core = 60'000;
  options.enable_profiling = with_profiling;
  options.observability.epoch_instructions = epoch_instructions;
  if (with_adaptive) options.adaptive = core::AdaptiveConfig{};
  sim::AppInstance inst;
  inst.spec = workload::app_by_name("milc");
  inst.seed = 99;
  std::vector<sim::AppInstance> apps;
  apps.push_back(std::move(inst));
  sim::System system(
      sim::homogeneous(dram::MemKind::kDdr3),
      std::make_unique<core::HomogeneousPolicy>(dram::MemKind::kDdr3),
      std::move(apps), options);
  benchmark::DoNotOptimize(system.run());
}

/// Full-system run with and without the profiling hooks installed,
/// measured as a *pair* inside one benchmark. The paper reports a 0.59%
/// average slowdown (Sec. IV-E); a true overhead that small is far below
/// host scheduling noise when the two sides run as separately-timed
/// benchmarks seconds apart, which regularly inverted the reading
/// (profiling "faster" than no-profiling). Each iteration runs the two
/// configurations back to back in an A/B/B/A order — linear drift (cpufreq
/// ramps, a neighbour starting up) cancels within the iteration — and the
/// per-side times accumulate into the reported instr/s counters.
void BM_SimulationOverheadPaired(benchmark::State& state) {
  using clock = std::chrono::steady_clock;
  double noprof_s = 0.0;
  double prof_s = 0.0;
  for (auto _ : state) {
    const clock::time_point t0 = clock::now();
    run_system(/*with_profiling=*/false);
    const clock::time_point t1 = clock::now();
    run_system(/*with_profiling=*/true);
    run_system(/*with_profiling=*/true);
    const clock::time_point t2 = clock::now();
    run_system(/*with_profiling=*/false);
    const clock::time_point t3 = clock::now();
    noprof_s += std::chrono::duration<double>(t1 - t0).count() +
                std::chrono::duration<double>(t3 - t2).count();
    prof_s += std::chrono::duration<double>(t2 - t1).count();
    state.SetIterationTime(std::chrono::duration<double>(t3 - t0).count());
  }
  const double sims_per_side = 2.0 * static_cast<double>(state.iterations());
  state.counters["noprofiling_instr_per_s"] =
      benchmark::Counter(60'000.0 * sims_per_side / noprof_s);
  state.counters["profiling_instr_per_s"] =
      benchmark::Counter(60'000.0 * sims_per_side / prof_s);
}
BENCHMARK(BM_SimulationOverheadPaired)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();

/// Adaptive-engine overhead, measured the same paired A/B/B/A way. The
/// engine-off side is the guarded number: wiring the engine through the
/// observer and epoch paths must cost nothing when it is not configured
/// (tools/perf_guard.py pins micro_overhead_noadaptive_instr_per_s). The
/// engine-on side is reported for visibility, not guarded — it legitimately
/// pays for attribution recording and epoch passes.
void BM_SimulationAdaptivePaired(benchmark::State& state) {
  using clock = std::chrono::steady_clock;
  double off_s = 0.0;
  double on_s = 0.0;
  for (auto _ : state) {
    const clock::time_point t0 = clock::now();
    run_system(/*with_profiling=*/false);
    const clock::time_point t1 = clock::now();
    run_system(/*with_profiling=*/false, 0, /*with_adaptive=*/true);
    run_system(/*with_profiling=*/false, 0, /*with_adaptive=*/true);
    const clock::time_point t2 = clock::now();
    run_system(/*with_profiling=*/false);
    const clock::time_point t3 = clock::now();
    off_s += std::chrono::duration<double>(t1 - t0).count() +
             std::chrono::duration<double>(t3 - t2).count();
    on_s += std::chrono::duration<double>(t2 - t1).count();
    state.SetIterationTime(std::chrono::duration<double>(t3 - t0).count());
  }
  const double sims_per_side = 2.0 * static_cast<double>(state.iterations());
  state.counters["noadaptive_instr_per_s"] =
      benchmark::Counter(60'000.0 * sims_per_side / off_s);
  state.counters["adaptive_instr_per_s"] =
      benchmark::Counter(60'000.0 * sims_per_side / on_s);
}
BENCHMARK(BM_SimulationAdaptivePaired)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();

/// Same run with the epoch stat sampler on (10K-instruction epochs): the
/// probe reads at each snapshot should stay within noise of the
/// no-profiling baseline, the pay-for-what-you-use contract of
/// common/stat_registry.h.
void BM_SimulationWithEpochSampling(benchmark::State& state) {
  for (auto _ : state) {
    run_system(/*with_profiling=*/false, /*epoch_instructions=*/10'000);
  }
}
BENCHMARK(BM_SimulationWithEpochSampling)->Unit(benchmark::kMillisecond);

/// One untimed full simulation so process-lifetime warmup (heap arena
/// growth, first-touch faults, workload table initialisation) is paid
/// before any timed run — a precondition for the overhead comparison
/// (no-profiling >= profiling throughput) to hold by construction.
void warmup() {
  sim::SystemOptions options;
  options.instructions_per_core = 60'000;
  options.enable_profiling = false;
  sim::AppInstance inst;
  inst.spec = workload::app_by_name("milc");
  inst.seed = 99;
  std::vector<sim::AppInstance> apps;
  apps.push_back(std::move(inst));
  sim::System system(
      sim::homogeneous(dram::MemKind::kDdr3),
      std::make_unique<core::HomogeneousPolicy>(dram::MemKind::kDdr3),
      std::move(apps), options);
  benchmark::DoNotOptimize(system.run());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  warmup();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
