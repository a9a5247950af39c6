#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"

namespace daris::common {
namespace {

TEST(OnlineStats, Empty) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(4.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 4.0);
}

TEST(OnlineStats, KnownMean) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(Percentiles, EmptyReturnsZero) {
  Percentiles p;
  EXPECT_EQ(p.percentile(50), 0.0);
  EXPECT_EQ(p.mean(), 0.0);
}

TEST(Percentiles, NearestRank) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(static_cast<double>(i));
  EXPECT_EQ(p.percentile(0), 1.0);
  EXPECT_EQ(p.percentile(50), 50.0);
  EXPECT_EQ(p.percentile(95), 95.0);
  EXPECT_EQ(p.percentile(100), 100.0);
  EXPECT_EQ(p.max(), 100.0);
  EXPECT_DOUBLE_EQ(p.mean(), 50.5);
}

TEST(Percentiles, UnsortedInput) {
  Percentiles p;
  for (double x : {9.0, 1.0, 5.0, 3.0, 7.0}) p.add(x);
  EXPECT_EQ(p.percentile(50), 5.0);
  EXPECT_EQ(p.percentile(0), 1.0);
  EXPECT_EQ(p.max(), 9.0);
}

TEST(Percentiles, AddAfterQueryStillCorrect) {
  Percentiles p;
  p.add(10.0);
  EXPECT_EQ(p.percentile(50), 10.0);
  p.add(20.0);
  p.add(0.0);
  EXPECT_EQ(p.percentile(50), 10.0);
  EXPECT_EQ(p.max(), 20.0);
}

TEST(SlidingWindowMax, EmptyFallback) {
  SlidingWindowMax w(5);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.max_or(42.0), 42.0);
}

TEST(SlidingWindowMax, TracksMaximum) {
  SlidingWindowMax w(3);
  w.push(1.0);
  EXPECT_EQ(w.max_or(0), 1.0);
  w.push(5.0);
  EXPECT_EQ(w.max_or(0), 5.0);
  w.push(2.0);
  EXPECT_EQ(w.max_or(0), 5.0);
}

TEST(SlidingWindowMax, OldMaximumExpires) {
  SlidingWindowMax w(3);
  w.push(9.0);
  w.push(2.0);
  w.push(3.0);
  EXPECT_EQ(w.max_or(0), 9.0);
  w.push(1.0);  // 9 falls out of the window {2,3,1}
  EXPECT_EQ(w.max_or(0), 3.0);
  w.push(1.0);  // {3,1,1}
  EXPECT_EQ(w.max_or(0), 3.0);
  w.push(1.0);  // {1,1,1}
  EXPECT_EQ(w.max_or(0), 1.0);
}

TEST(SlidingWindowMax, CapacityOneIsLastValue) {
  SlidingWindowMax w(1);
  w.push(5.0);
  w.push(2.0);
  EXPECT_EQ(w.max_or(0), 2.0);
  w.push(7.0);
  EXPECT_EQ(w.max_or(0), 7.0);
}

TEST(SlidingWindowMax, ZeroCapacityClampedToOne) {
  SlidingWindowMax w(0);
  EXPECT_EQ(w.capacity(), 1u);
  w.push(3.0);
  EXPECT_EQ(w.max_or(0), 3.0);
}

TEST(SlidingWindowMax, HugeCapacityHoldsOnlyItsMaxima) {
  // The window size is user input (--window): a 2^40 window must not
  // reserve capacity + 1 entries up front. A falling ramp keeps every
  // sample as a live maximum, so the ring grows to hold them all.
  SlidingWindowMax w(std::size_t{1} << 40);
  for (int i = 0; i < 1000; ++i) w.push(1000.0 - i);
  EXPECT_EQ(w.size(), 1000u);
  EXPECT_EQ(w.max_or(-1.0), 1000.0);
  w.push(5000.0);
  EXPECT_EQ(w.max_or(-1.0), 5000.0);
}

/// Property check against a brute-force window — this is the MRET window
/// (Eq. 1), so correctness matters. At least 50 windows' worth of pushes
/// wrap the ring many times over, in blocks of four shapes: a spike that
/// expires by age (moving the ring's head) followed by a few repeated
/// levels (ties exercise the `<=` pop), a strictly decreasing ramp (fills
/// the ring to its capacity + 1 bound — growing it from a wrapped state
/// first when the capacity exceeds 7 — so every maximum expires by age), a
/// rising ramp (each push pops everything), and a constant run.
class SlidingWindowMaxProperty : public ::testing::TestWithParam<int> {};

TEST_P(SlidingWindowMaxProperty, MatchesBruteForce) {
  const int capacity = GetParam();
  SlidingWindowMax w(static_cast<std::size_t>(capacity));
  Rng rng(1000 + static_cast<std::uint64_t>(capacity));
  std::vector<double> history;
  const int pushes = std::max(500, 50 * capacity);
  const int block = 2 * capacity + 1;
  for (int i = 0; i < pushes; ++i) {
    double x = 0.0;
    switch ((i / block) % 4) {
      case 0:
        x = i % block == 0 ? 10.0 : static_cast<double>(rng.uniform_int(0, 3));
        break;
      case 1:
        x = static_cast<double>(pushes - i);
        break;
      case 2:
        x = static_cast<double>(i);
        break;
      default:
        x = 2.0;
        break;
    }
    history.push_back(x);
    w.push(x);
    const std::size_t start =
        history.size() > static_cast<std::size_t>(capacity)
            ? history.size() - static_cast<std::size_t>(capacity)
            : 0;
    const double expect =
        *std::max_element(history.begin() + static_cast<long>(start),
                          history.end());
    ASSERT_EQ(w.max_or(-1.0), expect) << "at step " << i;
    ASSERT_EQ(w.size(), history.size() - start) << "at step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, SlidingWindowMaxProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16, 64));

}  // namespace
}  // namespace daris::common
