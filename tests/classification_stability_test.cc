// MOCA's central premise (Sec. III, "Our work targets applications that run
// repeatedly"): classification derived from a *training* input must hold on
// *reference* inputs and across runs. These parameterized tests sweep seeds
// and input scales for every application.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "sim/runner.h"
#include "workload/suite.h"

namespace moca::sim {
namespace {

struct Case {
  std::string app;
  std::uint64_t seed_a;
  std::uint64_t seed_b;
};

// Without this, gtest prints Case as raw bytes, which include the string's
// heap address and so make the listed test names differ from run to run.
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.app << "/" << c.seed_a << "/" << c.seed_b;
}

class StabilityP : public ::testing::TestWithParam<Case> {};

TEST_P(StabilityP, ObjectClassesAgreeAcrossTrainingSeeds) {
  const Case c = GetParam();
  Experiment ea;
  ea.instructions = 300'000;
  ea.train_seed = c.seed_a;
  Experiment eb = ea;
  eb.train_seed = c.seed_b;

  const workload::AppSpec spec = workload::app_by_name(c.app);
  const core::ClassifiedApp a =
      classify_for_runtime(profile_app(spec, ea), ea);
  const core::ClassifiedApp b =
      classify_for_runtime(profile_app(spec, eb), eb);

  EXPECT_EQ(a.app_class, b.app_class) << c.app;
  ASSERT_EQ(a.object_class.size(), b.object_class.size());
  // Allow at most one borderline object to flip between adjacent classes;
  // the dominant objects must agree.
  int disagreements = 0;
  for (const auto& [name, cls] : a.object_class) {
    ASSERT_TRUE(b.object_class.contains(name));
    disagreements += (b.object_class.at(name) != cls);
  }
  EXPECT_LE(disagreements, 1) << c.app;
}

TEST_P(StabilityP, TrainingScaleDoesNotFlipClasses) {
  const Case c = GetParam();
  Experiment small;
  small.instructions = 300'000;
  small.train_seed = c.seed_a;
  small.train_scale = 0.4;
  Experiment big = small;
  big.train_scale = 1.0;

  const workload::AppSpec spec = workload::app_by_name(c.app);
  const core::ClassifiedApp a =
      classify_for_runtime(profile_app(spec, small), small);
  const core::ClassifiedApp b =
      classify_for_runtime(profile_app(spec, big), big);
  EXPECT_EQ(a.app_class, b.app_class) << c.app;
  int disagreements = 0;
  for (const auto& [name, cls] : a.object_class) {
    disagreements += (b.object_class.at(name) != cls);
  }
  EXPECT_LE(disagreements, 1) << c.app;
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, StabilityP,
    ::testing::Values(Case{"mcf", 11, 99}, Case{"milc", 11, 99},
                      Case{"libquantum", 11, 99}, Case{"disparity", 11, 99},
                      Case{"lbm", 11, 99}, Case{"mser", 11, 99},
                      Case{"tracking", 11, 99}, Case{"gcc", 11, 99},
                      Case{"sift", 11, 99}, Case{"stitch", 11, 99}),
    [](const auto& info) { return info.param.app; });

TEST(Stability, DominantObjectsKeepTheirClassOnReferenceInput) {
  // Profile on training, then re-profile on the reference seed/scale: the
  // big memory-intensive objects must classify identically (this is what
  // makes offline profiling transferable at all).
  Experiment train;
  train.instructions = 300'000;
  Experiment ref = train;
  ref.train_seed = ref.ref_seed;
  ref.train_scale = 1.0;

  for (const std::string app : {"mcf", "lbm", "disparity"}) {
    const workload::AppSpec spec = workload::app_by_name(app);
    const core::AppProfile pa = profile_app(spec, train);
    const core::AppProfile pb = profile_app(spec, ref);
    const core::ClassifiedApp ca = classify_for_runtime(pa, train);
    const core::ClassifiedApp cb = classify_for_runtime(pb, ref);
    for (const auto& [name, obj] : pa.objects) {
      if (obj.mpki(pa.instructions) < 5.0) continue;  // dominant only
      EXPECT_EQ(ca.class_of(name), cb.class_of(name))
          << app << "/" << obj.label;
    }
  }
}

}  // namespace
}  // namespace moca::sim
