#include <gtest/gtest.h>

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

}  // namespace
}  // namespace daris::common
