// MOCA framework tests: naming, registry, classifier, profile round-trip,
// the modified allocator, and profiler attribution.
#include <gtest/gtest.h>

#include <array>
#include <set>

#include "cache/hierarchy.h"
#include "moca/allocator.h"
#include "moca/classifier.h"
#include "moca/naming.h"
#include "moca/object_registry.h"
#include "moca/profile.h"
#include "moca/profiler.h"
#include "os/address_space.h"

namespace moca::core {
namespace {

TEST(Naming, StableAcrossCalls) {
  const std::array<std::uint64_t, 3> stack{0x4004ee, 0x4004d6, 0x4004fc};
  EXPECT_EQ(name_object(stack), name_object(stack));
}

TEST(Naming, DependsOnEveryFrameAndOrder) {
  const std::array<std::uint64_t, 2> a{0x4004ee, 0x4004d6};
  const std::array<std::uint64_t, 2> b{0x4004d6, 0x4004ee};  // swapped
  const std::array<std::uint64_t, 2> c{0x4004ee, 0x4004d7};  // 1-bit caller
  EXPECT_NE(name_object(a), name_object(b));
  EXPECT_NE(name_object(a), name_object(c));
}

TEST(Naming, SameSiteDifferentCallersDiffer) {
  // Paper Fig. 3: malloc at the same site reached via main vs via foo.
  const std::array<std::uint64_t, 1> direct{0x4004ee};
  const std::array<std::uint64_t, 2> via_foo{0x4004ee, 0x4004fc};
  EXPECT_NE(name_object(direct), name_object(via_foo));
}

TEST(Naming, OnlyFirstFiveLevelsParticipate) {
  const std::array<std::uint64_t, 6> deep{1, 2, 3, 4, 5, 6};
  const std::array<std::uint64_t, 6> deeper{1, 2, 3, 4, 5, 999};
  const std::array<std::uint64_t, 5> five{1, 2, 3, 4, 5};
  EXPECT_EQ(name_object(deep), name_object(deeper));
  EXPECT_EQ(name_object(deep), name_object(five));
  const std::array<std::uint64_t, 5> other{1, 2, 3, 4, 6};
  EXPECT_NE(name_object(five), name_object(other));
}

TEST(Naming, CollisionFreeOverManySites) {
  std::set<ObjectName> names;
  for (std::uint64_t site = 0; site < 10'000; ++site) {
    const std::array<std::uint64_t, 2> stack{0x400000 + site * 5, 0x5000};
    names.insert(name_object(stack));
  }
  EXPECT_EQ(names.size(), 10'000u);
}

TEST(Registry, AddAndFindByAddress) {
  ObjectRegistry reg;
  const std::uint64_t a = reg.add(111, 0, 0x1000, 256, os::MemClass::kLatency,
                                  "obj-a");
  const std::uint64_t b =
      reg.add(222, 0, 0x2000, 128, os::MemClass::kBandwidth, "obj-b");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(reg.label_of(a), "obj-a");
  ASSERT_NE(reg.find(0, 0x1080), nullptr);
  EXPECT_EQ(reg.name_of(reg.find(0, 0x1080)->id), 111u);
  EXPECT_EQ(reg.find(0, 0x1000 + 256), nullptr);  // one past end
  EXPECT_EQ(reg.find(0, 0x0500), nullptr);
  EXPECT_EQ(reg.find(1, 0x1080), nullptr);  // other process
}

TEST(Registry, OverlappingRegistrationThrows) {
  ObjectRegistry reg;
  (void)reg.add(1, 0, 0x1000, 64, os::MemClass::kNonIntensive, "x");
  EXPECT_THROW(
      (void)reg.add(2, 0, 0x1000, 64, os::MemClass::kNonIntensive, "y"),
      CheckError);
}

ObjectProfile make_profile(std::uint64_t misses, std::uint64_t load_misses,
                           std::uint64_t stalls) {
  ObjectProfile p;
  p.llc_misses = misses;
  p.load_llc_misses = load_misses;
  p.rob_stall_cycles = stalls;
  return p;
}

TEST(Classifier, FigureFiveRegions) {
  const Thresholds t{1.0, 20.0};
  constexpr std::uint64_t kInstr = 1'000'000;
  // Low MPKI -> N regardless of stall.
  EXPECT_EQ(classify_object(make_profile(500, 500, 1'000'000), kInstr, t),
            os::MemClass::kNonIntensive);
  // High MPKI + high stall -> L.
  EXPECT_EQ(classify_object(make_profile(30'000, 30'000, 30'000 * 60), kInstr,
                            t),
            os::MemClass::kLatency);
  // High MPKI + low stall -> B.
  EXPECT_EQ(classify_object(make_profile(30'000, 30'000, 30'000 * 5), kInstr,
                            t),
            os::MemClass::kBandwidth);
}

TEST(Classifier, ThresholdBoundariesAreInclusive) {
  const Thresholds t{1.0, 20.0};
  constexpr std::uint64_t kInstr = 1'000'000;
  // Exactly Thr_Lat MPKI (1000 misses / 1M instr = 1.0) is intensive.
  EXPECT_NE(classify_object(make_profile(1000, 1000, 1000 * 25), kInstr, t),
            os::MemClass::kNonIntensive);
  // Exactly Thr_BW stall/miss is latency-sensitive (>= per Fig. 5).
  EXPECT_EQ(classify_object(make_profile(2000, 2000, 2000 * 20), kInstr, t),
            os::MemClass::kLatency);
}

TEST(Classifier, ZeroLoadMissesMeansZeroStall) {
  const Thresholds t{1.0, 20.0};
  // Store-only object with high MPKI: stall/miss = 0 -> bandwidth class.
  EXPECT_EQ(classify_object(make_profile(5000, 0, 0), 1'000'000, t),
            os::MemClass::kBandwidth);
}

TEST(Classifier, ClassifiedAppDefaultsUnknownToPow) {
  AppProfile profile;
  profile.app_name = "x";
  profile.instructions = 1'000'000;
  ObjectProfile hot = make_profile(10, 10, 100);
  hot.name = 42;
  profile.objects[42] = hot;
  const ClassifiedApp c = classify(profile, Thresholds{});
  EXPECT_EQ(c.class_of(42), os::MemClass::kNonIntensive);
  EXPECT_EQ(c.class_of(4242), os::MemClass::kNonIntensive);  // unknown
}

TEST(Classifier, AppLevelUsesAggregates) {
  AppProfile p;
  p.instructions = 1'000'000;
  p.llc_misses = 40'000;
  p.load_llc_misses = 35'000;
  p.rob_stall_cycles = 35'000 * 50;
  EXPECT_EQ(classify_app(p, Thresholds{1.0, 20.0}), os::MemClass::kLatency);
  p.rob_stall_cycles = 35'000 * 10;
  EXPECT_EQ(classify_app(p, Thresholds{1.0, 20.0}),
            os::MemClass::kBandwidth);
  p.llc_misses = 100;
  EXPECT_EQ(classify_app(p, Thresholds{1.0, 20.0}),
            os::MemClass::kNonIntensive);
}

TEST(Profile, SerializeRoundTrips) {
  AppProfile p;
  p.app_name = "mcf";
  p.instructions = 123456;
  p.llc_misses = 999;
  p.load_llc_misses = 900;
  p.rob_stall_cycles = 55555;
  p.stack_llc_misses = 3;
  p.code_llc_misses = 1;
  p.other_llc_misses = 2;
  ObjectProfile o1 = make_profile(500, 450, 30000);
  o1.name = 77;
  o1.label = "nodes";
  o1.bytes = 1 << 20;
  o1.allocations = 2;
  p.objects[77] = o1;
  ObjectProfile o2 = make_profile(10, 10, 50);
  o2.name = 88;
  o2.label = "arcs buffer";  // label with a space
  p.objects[88] = o2;

  const AppProfile q = AppProfile::deserialize(p.serialize());
  EXPECT_EQ(q.app_name, "mcf");
  EXPECT_EQ(q.instructions, p.instructions);
  EXPECT_EQ(q.llc_misses, p.llc_misses);
  EXPECT_EQ(q.stack_llc_misses, 3u);
  ASSERT_EQ(q.objects.size(), 2u);
  EXPECT_EQ(q.objects.at(77).label, "nodes");
  EXPECT_EQ(q.objects.at(77).bytes, o1.bytes);
  EXPECT_EQ(q.objects.at(88).label, "arcs buffer");
  EXPECT_EQ(q.objects.at(88).rob_stall_cycles, 50u);
}

TEST(Profile, DeserializeRejectsGarbage) {
  EXPECT_THROW(AppProfile::deserialize("nonsense 1 2 3"), CheckError);
  EXPECT_THROW(AppProfile::deserialize(""), CheckError);
}

TEST(Profile, MetricsDeriveFromCounters) {
  ObjectProfile o = make_profile(5000, 4000, 80000);
  EXPECT_DOUBLE_EQ(o.mpki(1'000'000), 5.0);
  EXPECT_DOUBLE_EQ(o.stall_per_miss(), 20.0);
  AppProfile p;
  p.instructions = 2'000'000;
  p.stack_llc_misses = 400;
  p.code_llc_misses = 100;
  EXPECT_DOUBLE_EQ(p.stack_mpki(), 0.2);
  EXPECT_DOUBLE_EQ(p.code_mpki(), 0.05);
}

TEST(Allocator, PlacesObjectsInClassPartition) {
  os::AddressSpace space(0);
  ObjectRegistry registry;
  ClassifiedApp classes;
  const std::array<std::uint64_t, 2> lat_stack{0x1001, 0x2001};
  const std::array<std::uint64_t, 2> bw_stack{0x1002, 0x2002};
  classes.object_class[name_object(lat_stack)] = os::MemClass::kLatency;
  classes.object_class[name_object(bw_stack)] = os::MemClass::kBandwidth;

  MocaAllocator alloc(space, registry, &classes);
  const auto lat = alloc.malloc_named(lat_stack, 4096, "lat-obj");
  EXPECT_EQ(os::segment_of(lat.base), os::Segment::kHeapLat);
  const auto bw = alloc.malloc_named(bw_stack, 4096, "bw-obj");
  EXPECT_EQ(os::segment_of(bw.base), os::Segment::kHeapBw);
  const std::array<std::uint64_t, 2> unknown{0x9999, 0x8888};
  const auto pow = alloc.malloc_named(unknown, 4096, "unknown-obj");
  EXPECT_EQ(os::segment_of(pow.base), os::Segment::kHeapPow);

  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(registry.instance(lat.runtime_id).placed_class,
            os::MemClass::kLatency);
}

TEST(Allocator, NoClassificationMeansPowPartition) {
  os::AddressSpace space(0);
  ObjectRegistry registry;
  MocaAllocator alloc(space, registry, nullptr);
  const std::array<std::uint64_t, 1> stack{0x1234};
  const auto a = alloc.malloc_named(stack, 64, "x");
  EXPECT_EQ(os::segment_of(a.base), os::Segment::kHeapPow);
}

TEST(Profiler, AttributesMissesAndStallsPerObjectAndSegment) {
  ObjectRegistry registry;
  const std::uint64_t obj_a =
      registry.add(100, /*pid=*/0, 0x1000, 4096, os::MemClass::kLatency, "a");
  const std::uint64_t obj_b =
      registry.add(200, /*pid=*/0, 0x3000, 4096, os::MemClass::kBandwidth,
                   "b");
  Profiler profiler(registry);

  cache::AccessContext miss;
  miss.process = 0;
  miss.object = obj_a;
  miss.is_load = true;
  for (int i = 0; i < 10; ++i) profiler.on_llc_miss(miss);
  miss.object = obj_b;
  miss.is_load = false;  // store miss: counts for MPKI, not stall ratio
  for (int i = 0; i < 4; ++i) profiler.on_llc_miss(miss);
  miss.object = cache::kNoObject;
  miss.segment = static_cast<std::uint8_t>(os::Segment::kStack);
  profiler.on_llc_miss(miss);
  miss.segment = static_cast<std::uint8_t>(os::Segment::kCode);
  profiler.on_llc_miss(miss);
  profiler.on_head_stall(0, obj_a, 600);
  profiler.on_head_stall(0, cache::kNoObject, 1);

  const AppProfile p = profiler.finalize("app", 0, 1'000'000);
  EXPECT_EQ(p.llc_misses, 16u);
  EXPECT_EQ(p.load_llc_misses, 10u);
  EXPECT_EQ(p.rob_stall_cycles, 601u);
  EXPECT_EQ(p.stack_llc_misses, 1u);
  EXPECT_EQ(p.code_llc_misses, 1u);
  ASSERT_EQ(p.objects.size(), 2u);
  EXPECT_EQ(p.objects.at(100).llc_misses, 10u);
  EXPECT_EQ(p.objects.at(100).rob_stall_cycles, 600u);
  EXPECT_DOUBLE_EQ(p.objects.at(100).stall_per_miss(), 60.0);
  EXPECT_EQ(p.objects.at(200).llc_misses, 4u);
  EXPECT_EQ(p.objects.at(200).load_llc_misses, 0u);
  // Conservation: object misses sum to app misses minus segment misses.
  EXPECT_EQ(p.objects.at(100).llc_misses + p.objects.at(200).llc_misses +
                p.stack_llc_misses + p.code_llc_misses + p.other_llc_misses,
            p.llc_misses);
}

TEST(Profiler, MergesInstancesSharingAName) {
  ObjectRegistry registry;
  // Same site allocated twice (e.g., per loop iteration).
  const std::uint64_t first =
      registry.add(500, 0, 0x1000, 1024, os::MemClass::kLatency, "buf");
  const std::uint64_t second =
      registry.add(500, 0, 0x5000, 1024, os::MemClass::kLatency, "buf");
  Profiler profiler(registry);
  cache::AccessContext ctx;
  ctx.object = first;
  profiler.on_llc_miss(ctx);
  ctx.object = second;
  profiler.on_llc_miss(ctx);
  const AppProfile p = profiler.finalize("app", 0, 1000);
  ASSERT_EQ(p.objects.size(), 1u);
  EXPECT_EQ(p.objects.at(500).llc_misses, 2u);
  EXPECT_EQ(p.objects.at(500).allocations, 2u);
  EXPECT_EQ(p.objects.at(500).bytes, 2048u);
}

TEST(Profiler, ProcessesAreIsolated) {
  ObjectRegistry registry;
  const std::uint64_t a =
      registry.add(1, 0, 0x1000, 64, os::MemClass::kLatency, "a");
  const std::uint64_t b =
      registry.add(2, 1, 0x1000, 64, os::MemClass::kLatency, "b");
  Profiler profiler(registry);
  cache::AccessContext ctx;
  ctx.process = 0;
  ctx.object = a;
  profiler.on_llc_miss(ctx);
  ctx.process = 1;
  ctx.object = b;
  profiler.on_llc_miss(ctx);
  const AppProfile p0 = profiler.finalize("a", 0, 1000);
  const AppProfile p1 = profiler.finalize("b", 1, 1000);
  EXPECT_EQ(p0.llc_misses, 1u);
  EXPECT_EQ(p1.llc_misses, 1u);
  EXPECT_EQ(p0.objects.size(), 1u);
  EXPECT_FALSE(p0.objects.contains(2));
  EXPECT_FALSE(p1.objects.contains(1));
}

}  // namespace
}  // namespace moca::core
