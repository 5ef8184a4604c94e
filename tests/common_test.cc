// Unit tests for the common substrate: RNG, time, stats, event queue, table.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/event_queue.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/time.h"
#include "common/units.h"

namespace moca {
namespace {

TEST(Check, ThrowsCheckErrorWithMessage) {
  // MOCA_CHECK names the failed expression and its repository-relative
  // source location; MOCA_CHECK_MSG's text is the message alone, with no
  // expression or source location.
  try {
    MOCA_CHECK(1 == 2);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(" at tests/common_test.cc:"),
              std::string::npos)
        << e.what();
  }
  try {
    MOCA_CHECK_MSG(1 == 2, "value=" << 42);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_EQ(std::string(e.what()), "value=42");
  }
}

TEST(Check, PassingConditionDoesNothing) {
  EXPECT_NO_THROW(MOCA_CHECK(true));
  EXPECT_NO_THROW(MOCA_CHECK_MSG(2 + 2 == 4, "fine"));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliFrequencyRoughlyMatches) {
  Rng r(11);
  int hits = 0;
  constexpr int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) hits += r.next_bool(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.02);
}

TEST(Rng, SplitMixIsStable) {
  // Canonical SplitMix64 first output for seed 0 — object naming depends on
  // this function staying stable across platforms and releases.
  EXPECT_EQ(splitmix64(0), 0xE220A8397B1DCDAFULL);
  EXPECT_NE(splitmix64(1), splitmix64(2));
}

TEST(Time, CycleConversionsRoundTrip) {
  EXPECT_EQ(cycle_to_ps(5), 5000);
  EXPECT_EQ(ps_to_cycle_floor(5999), 5);
  EXPECT_EQ(ps_to_cycle_ceil(5001), 6);
  EXPECT_EQ(ps_to_cycle_ceil(5000), 5);
  EXPECT_EQ(ns_to_ps(1.07), 1070);
  EXPECT_DOUBLE_EQ(ps_to_seconds(1'000'000'000'000LL), 1.0);
}

TEST(Units, PageAndLineConstants) {
  EXPECT_EQ(kPageBytes, 4096u);
  EXPECT_EQ(1ull << kPageShift, kPageBytes);
  EXPECT_EQ(kLineBytes, 64u);
  EXPECT_EQ(1ull << kLineShift, kLineBytes);
  EXPECT_DOUBLE_EQ(bytes_to_gib(GiB), 1.0);
}

TEST(Stats, RunningStatBasics) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, SafeDivAndMpki) {
  EXPECT_DOUBLE_EQ(safe_div(1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(safe_div(6.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(mpki(5, 1000), 5.0);
  EXPECT_DOUBLE_EQ(mpki(5, 0), 0.0);
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(300, [&] { order.push_back(3); });
  q.schedule(100, [&] { order.push_back(1); });
  q.schedule(200, [&] { order.push_back(2); });
  q.run_until(250);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.now(), 250);
  q.run_until(1000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAtEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(50, [&order, i] { order.push_back(i); });
  }
  q.run_until(50);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CallbackMayScheduleAtCurrentTime) {
  EventQueue q;
  int fired = 0;
  q.schedule(10, [&] {
    ++fired;
    q.schedule(10, [&] { ++fired; });
  });
  q.run_until(10);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SchedulingIntoThePastThrows) {
  EventQueue q;
  q.schedule(100, [] {});
  q.run_until(100);
  EXPECT_THROW(q.schedule(50, [] {}), CheckError);
}

TEST(EventQueue, NextTimeReportsEarliestPending) {
  EventQueue q;
  q.schedule(70, [] {});
  q.schedule(30, [] {});
  EXPECT_EQ(q.next_time(), 30);
  EXPECT_EQ(q.size(), 2u);
}

TEST(Table, PrintsAlignedColumnsAndAllRows) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(std::uint64_t{7});
  t.row().cell("b").cell(3.14159, 2);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, CellWithoutRowThrows) {
  Table t({"a"});
  EXPECT_THROW(t.cell("x"), CheckError);
}

TEST(Table, TooManyCellsThrows) {
  Table t({"a", "b"});
  t.row().cell("1").cell("2");
  EXPECT_THROW(t.cell("3"), CheckError);
}

TEST(Table, FormatFixedPrecision) {
  EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
}

}  // namespace
}  // namespace moca
