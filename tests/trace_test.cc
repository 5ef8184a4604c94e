// Trace capture/replay tests: file format round-trip, recording adapter,
// wrap-around replay, and end-to-end replay fidelity.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/fault_injection.h"
#include "moca/policies.h"
#include "sim/runner.h"
#include "trace/record.h"
#include "trace/replay.h"
#include "trace/trace.h"
#include "workload/suite.h"

namespace moca::trace {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct TempFile {
  explicit TempFile(const std::string& name) : path(temp_path(name)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

cpu::MicroOp make_op(cpu::OpKind kind, std::uint64_t vaddr,
                     std::uint32_t dep = 0, std::uint64_t object = 7) {
  cpu::MicroOp op;
  op.kind = kind;
  op.vaddr = vaddr;
  op.dep1 = dep;
  op.object = object;
  op.latency = 2;
  return op;
}

TEST(TraceFile, RoundTripsRecordsExactly) {
  TempFile file("moca_trace_roundtrip.trc");
  std::vector<cpu::MicroOp> ops = {
      make_op(cpu::OpKind::kAlu, 0, 3, cache::kNoObject),
      make_op(cpu::OpKind::kLoad, 0x123456789abcULL, 1, 42),
      make_op(cpu::OpKind::kStore, os::kHeapBwBase + 64, 0, 9),
  };
  {
    TraceWriter writer(file.path);
    for (const auto& op : ops) writer.append(op);
    writer.close();
    EXPECT_EQ(writer.count(), 3u);
  }
  TraceReader reader(file.path);
  EXPECT_EQ(reader.count(), 3u);
  for (const cpu::MicroOp& expected : ops) {
    cpu::MicroOp got;
    ASSERT_TRUE(reader.next(got));
    EXPECT_EQ(got.kind, expected.kind);
    EXPECT_EQ(got.vaddr, expected.vaddr);
    EXPECT_EQ(got.dep1, expected.dep1);
    EXPECT_EQ(got.object, expected.object);
    EXPECT_EQ(got.latency, expected.latency);
  }
  cpu::MicroOp extra;
  EXPECT_FALSE(reader.next(extra));
}

TEST(TraceFile, RewindRestarts) {
  TempFile file("moca_trace_rewind.trc");
  {
    TraceWriter writer(file.path);
    writer.append(make_op(cpu::OpKind::kLoad, 0x1000));
    writer.append(make_op(cpu::OpKind::kLoad, 0x2000));
  }  // destructor closes
  TraceReader reader(file.path);
  cpu::MicroOp op;
  ASSERT_TRUE(reader.next(op));
  ASSERT_TRUE(reader.next(op));
  EXPECT_FALSE(reader.next(op));
  reader.rewind();
  ASSERT_TRUE(reader.next(op));
  EXPECT_EQ(op.vaddr, 0x1000u);
}

TEST(TraceFile, RejectsGarbageFiles) {
  TempFile file("moca_trace_garbage.trc");
  {
    std::ofstream out(file.path, std::ios::binary);
    out << "this is not a trace";
  }
  EXPECT_THROW(TraceReader reader(file.path), CheckError);
  EXPECT_THROW(TraceReader reader("/nonexistent/file.trc"), CheckError);
}

TEST(ReplayStream, WrapsAround) {
  TempFile file("moca_trace_wrap.trc");
  {
    TraceWriter writer(file.path);
    writer.append(make_op(cpu::OpKind::kLoad, 0x1000));
    writer.append(make_op(cpu::OpKind::kLoad, 0x2000));
  }
  TraceReader reader(file.path);
  ReplayStream stream(reader);
  for (int pass = 0; pass < 3; ++pass) {
    EXPECT_EQ(stream.next().vaddr, 0x1000u);
    EXPECT_EQ(stream.next().vaddr, 0x2000u);
  }
  EXPECT_EQ(stream.wraps(), 2u);
}

TEST(Record, CapturesAppStreamDeterministically) {
  TempFile a("moca_trace_rec_a.trc");
  TempFile b("moca_trace_rec_b.trc");
  RecordOptions options;
  options.ops = 20'000;
  options.seed = 77;
  const workload::AppSpec app = workload::app_by_name("milc");
  EXPECT_EQ(record_app_trace(app, a.path, options), options.ops);
  EXPECT_EQ(record_app_trace(app, b.path, options), options.ops);

  TraceReader ra(a.path), rb(b.path);
  cpu::MicroOp oa, ob;
  while (ra.next(oa)) {
    ASSERT_TRUE(rb.next(ob));
    EXPECT_EQ(oa.vaddr, ob.vaddr);
    EXPECT_EQ(oa.kind, ob.kind);
  }
}

TEST(Record, ClassifiedRecordingUsesTypedPartitions) {
  TempFile file("moca_trace_classified.trc");
  sim::Experiment e;
  e.instructions = 150'000;
  const workload::AppSpec app = workload::app_by_name("disparity");
  const core::ClassifiedApp classes =
      sim::classify_for_runtime(sim::profile_app(app, e), e);
  RecordOptions options;
  options.ops = 30'000;
  options.classes = &classes;
  (void)record_app_trace(app, file.path, options);

  TraceReader reader(file.path);
  cpu::MicroOp op;
  bool saw_lat = false, saw_bw = false;
  while (reader.next(op)) {
    if (op.kind == cpu::OpKind::kAlu) continue;
    const os::Segment seg = os::segment_of(op.vaddr);
    saw_lat |= seg == os::Segment::kHeapLat;
    saw_bw |= seg == os::Segment::kHeapBw;
  }
  EXPECT_TRUE(saw_lat);  // cost_volume
  EXPECT_TRUE(saw_bw);   // img_pyramid
}

TEST(Replay, RunsTraceOnMemorySystem) {
  TempFile file("moca_trace_replay.trc");
  RecordOptions options;
  options.ops = 60'000;
  (void)record_app_trace(workload::app_by_name("mcf"), file.path, options);

  const ReplayResult r = replay_trace(
      file.path, sim::homogeneous(dram::MemKind::kDdr3),
      std::make_unique<core::HomogeneousPolicy>(dram::MemKind::kDdr3));
  EXPECT_EQ(r.instructions, 60'000u);
  EXPECT_GT(r.ipc, 0.0);
  EXPECT_GT(r.llc_misses, 0u);
  EXPECT_GT(r.total_mem_access_time, 0);
  EXPECT_GT(r.memory_energy_j, 0.0);
}

TEST(Replay, PinnedDdr3Results) {
  // Exact results of one full pass over recorded gcc and mcf traces. The
  // replay loop may advance time however it likes (mcf's core is stalled
  // for most of its cycles, gcc's far less), but not change a field.
  struct Pin {
    const char* app;
    Cycle cycles;
    double ipc;
    std::uint64_t llc_misses;
    TimePs mem_access_time;
    double energy_j;
    std::uint64_t frames;
  };
  for (const Pin& pin :
       {Pin{"gcc", 50'332, 0.9934037987761265, 1950, 87'458'450,
            2.5567496000000001e-05, 157},
        Pin{"mcf", 123'581, 0.40459293904402782, 3473, 156'914'450,
            5.0301367999999998e-05, 1584}}) {
    TempFile file(std::string("moca_trace_replay_pin_") + pin.app + ".trc");
    RecordOptions options;
    options.ops = 50'000;
    (void)record_app_trace(workload::app_by_name(pin.app), file.path,
                           options);
    const ReplayResult r = replay_trace(
        file.path, sim::homogeneous(dram::MemKind::kDdr3),
        std::make_unique<core::HomogeneousPolicy>(dram::MemKind::kDdr3));
    EXPECT_EQ(r.instructions, 50'000u) << pin.app;
    EXPECT_EQ(r.cycles, pin.cycles) << pin.app;
    EXPECT_EQ(r.ipc, pin.ipc) << pin.app;
    EXPECT_EQ(r.llc_misses, pin.llc_misses) << pin.app;
    EXPECT_EQ(r.total_mem_access_time, pin.mem_access_time) << pin.app;
    EXPECT_EQ(r.memory_energy_j, pin.energy_j) << pin.app;
    EXPECT_EQ(r.frames_per_module, std::vector<std::uint64_t>{pin.frames})
        << pin.app;
  }
}

TEST(Replay, MocaPolicyHonorsRecordedPartitions) {
  TempFile file("moca_trace_replay_moca.trc");
  sim::Experiment e;
  e.instructions = 150'000;
  const workload::AppSpec app = workload::app_by_name("disparity");
  const core::ClassifiedApp classes =
      sim::classify_for_runtime(sim::profile_app(app, e), e);
  RecordOptions options;
  options.ops = 60'000;
  options.classes = &classes;
  (void)record_app_trace(app, file.path, options);

  const ReplayResult r =
      replay_trace(file.path, sim::heterogeneous(1),
                   std::make_unique<core::MocaPolicy>());
  ASSERT_EQ(r.frames_per_module.size(), 4u);
  EXPECT_GT(r.frames_per_module[0], 0u);  // latency pages in RLDRAM
  EXPECT_GT(r.frames_per_module[1], 0u);  // bandwidth pages in HBM

  // RLDRAM placement must beat all-LPDDR placement on access time.
  const ReplayResult lp = replay_trace(
      file.path, sim::homogeneous(dram::MemKind::kLpddr2),
      std::make_unique<core::HomogeneousPolicy>(dram::MemKind::kLpddr2));
  EXPECT_LT(r.total_mem_access_time, lp.total_mem_access_time);
}

TEST(Replay, DeterministicAcrossRuns) {
  TempFile file("moca_trace_replay_det.trc");
  RecordOptions options;
  options.ops = 40'000;
  (void)record_app_trace(workload::app_by_name("lbm"), file.path, options);
  const ReplayResult a = replay_trace(
      file.path, sim::homogeneous(dram::MemKind::kHbm),
      std::make_unique<core::HomogeneousPolicy>(dram::MemKind::kHbm));
  const ReplayResult b = replay_trace(
      file.path, sim::homogeneous(dram::MemKind::kHbm),
      std::make_unique<core::HomogeneousPolicy>(dram::MemKind::kHbm));
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.llc_misses, b.llc_misses);
  EXPECT_EQ(a.total_mem_access_time, b.total_mem_access_time);
}

TEST(Replay, HonorsInterleaveGranule) {
  TempFile file("moca_trace_replay_granule.trc");
  RecordOptions options;
  options.ops = 60'000;
  (void)record_app_trace(workload::app_by_name("lbm"), file.path, options);
  const auto replay = [&](const sim::MemSystemConfig& memsys) {
    return replay_trace(
        file.path, memsys,
        std::make_unique<core::HomogeneousPolicy>(dram::MemKind::kDdr3));
  };
  const sim::MemSystemConfig row = sim::homogeneous(dram::MemKind::kDdr3);
  sim::MemSystemConfig line = row;
  line.modules[0].interleave_granule_bytes = kLineBytes;
  // Line interleaving spreads lbm's streams over the channels instead of
  // keeping each row's lines on one: the machine really changed.
  EXPECT_NE(replay(row).total_mem_access_time,
            replay(line).total_mem_access_time);
}

TEST(Replay, ArmedTraceClausesApply) {
  TempFile file("moca_trace_replay_faults.trc");
  RecordOptions options;
  options.ops = 20'000;
  (void)record_app_trace(workload::app_by_name("gcc"), file.path, options);
  const auto replay = [&](FaultInjector* injector) {
    ReplayOptions replay_options;
    replay_options.injector = injector;
    return replay_trace(
        file.path, sim::homogeneous(dram::MemKind::kDdr3),
        std::make_unique<core::HomogeneousPolicy>(dram::MemKind::kDdr3),
        replay_options);
  };
  const ReplayResult clean = replay(nullptr);

  FaultInjector corrupt(FaultPlan::parse("trace:corrupt=5"), 1);
  EXPECT_THROW((void)replay(&corrupt), RetryableError);

  // Truncated at record 100, the stream loops over a tiny footprint: the
  // same one-pass budget commits with far fewer misses.
  FaultInjector truncate(FaultPlan::parse("trace:truncate=100"), 1);
  const ReplayResult truncated = replay(&truncate);
  EXPECT_EQ(truncated.instructions, clean.instructions);
  EXPECT_LT(truncated.llc_misses, clean.llc_misses);
}

}  // namespace
}  // namespace moca::trace
