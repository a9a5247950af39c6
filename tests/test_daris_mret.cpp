// MRET estimation (Eq. 1-2, Eq. 10 AFET seeding) and virtual deadlines
// (Eq. 8).
#include <gtest/gtest.h>

#include "common/time.h"
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "daris/mret.h"

namespace daris::rt {
namespace {

using common::from_ms;

TEST(Mret, AfetSeedsBeforeObservations) {
  MretEstimator m(3, 5);
  const double afet[] = {100.0, 200.0, 300.0};
  m.set_afet(afet);
  EXPECT_DOUBLE_EQ(m.stage_mret_us(0), 100.0);
  EXPECT_DOUBLE_EQ(m.stage_mret_us(2), 300.0);
  EXPECT_DOUBLE_EQ(m.total_mret_us(), 600.0);
}

TEST(Mret, ObservationReplacesAfet) {
  MretEstimator m(2, 5);
  const double afet[] = {100.0, 100.0};
  m.set_afet(afet);
  m.record(0, 40.0);
  // Stage 0 now uses the measured window (even though 40 < AFET 100):
  // MRET adapts downward, which is the whole point vs. static WCET.
  EXPECT_DOUBLE_EQ(m.stage_mret_us(0), 40.0);
  EXPECT_DOUBLE_EQ(m.stage_mret_us(1), 100.0);  // untouched stage keeps AFET
}

TEST(Mret, WindowMaxOverRecentObservations) {
  MretEstimator m(1, 3);
  for (double v : {10.0, 50.0, 20.0}) m.record(0, v);
  EXPECT_DOUBLE_EQ(m.stage_mret_us(0), 50.0);
  m.record(0, 15.0);  // 10 expires; window {50,20,15}
  EXPECT_DOUBLE_EQ(m.stage_mret_us(0), 50.0);
  m.record(0, 5.0);  // {20,15,5}
  m.record(0, 5.0);  // {15,5,5}... 50 and 20 have rolled out
  EXPECT_DOUBLE_EQ(m.stage_mret_us(0), 15.0);
}

TEST(Mret, TotalIsSumOfStageMrets) {
  MretEstimator m(3, 5);
  m.record(0, 10.0);
  m.record(1, 20.0);
  m.record(2, 30.0);
  EXPECT_DOUBLE_EQ(m.total_mret_us(), 60.0);
}

TEST(Mret, VirtualDeadlinesProportionalToStageShares) {
  MretEstimator m(3, 5);
  m.record(0, 10.0);
  m.record(1, 30.0);
  m.record(2, 60.0);
  const auto vd = m.virtual_deadlines(from_ms(10.0));
  ASSERT_EQ(vd.size(), 3u);
  EXPECT_NEAR(common::to_ms(vd[0]), 1.0, 0.01);
  EXPECT_NEAR(common::to_ms(vd[1]), 3.0, 0.01);
  EXPECT_NEAR(common::to_ms(vd[2]), 6.0, 0.01);
}

TEST(Mret, VirtualDeadlinesSumApproxTotal) {
  MretEstimator m(4, 5);
  for (std::size_t j = 0; j < 4; ++j) m.record(j, 7.0 + 3.0 * j);
  const common::Duration d = from_ms(33.3);
  const auto vd = m.virtual_deadlines(d);
  common::Duration sum = 0;
  for (auto v : vd) sum += v;
  EXPECT_NEAR(static_cast<double>(sum), static_cast<double>(d),
              static_cast<double>(vd.size()));  // rounding only
}

TEST(Mret, DegenerateZeroEstimatesSplitEvenly) {
  MretEstimator m(4, 5);  // no AFET, no observations
  const auto vd = m.virtual_deadlines(from_ms(8.0));
  for (auto v : vd) EXPECT_NEAR(common::to_ms(v), 2.0, 0.01);
}

TEST(Mret, ObservationCountTracking) {
  MretEstimator m(2, 5);
  EXPECT_EQ(m.observations(0), 0u);
  m.record(0, 1.0);
  m.record(0, 2.0);
  EXPECT_EQ(m.observations(0), 2u);
  EXPECT_EQ(m.observations(1), 0u);
  EXPECT_EQ(m.num_stages(), 2u);
}

TEST(Mret, UnobservedEstimatorReadsAfetUntilTheFirstRecord) {
  // The stage windows are created on the first record(). Until then every
  // stage reports no observations and reads its AFET seed exactly, so
  // Algorithm 1, Eq. 8 and Eq. 12 see the same values as with eager windows.
  MretEstimator m(3, 5);
  const double afet[] = {120.5, 80.25, 300.0};
  m.set_afet(afet);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(m.observations(j), 0u);
  EXPECT_EQ(m.stage_mret_us(0), 120.5);
  EXPECT_EQ(m.stage_mret_us(1), 80.25);
  EXPECT_EQ(m.stage_mret_us(2), 300.0);
  EXPECT_EQ(m.total_mret_us(), 120.5 + 80.25 + 300.0);
  // A re-seed (runner kSlow/kAdd faults) is read directly too.
  const double reseed[] = {60.0, 40.0, 150.0};
  m.set_afet(reseed);
  EXPECT_EQ(m.stage_mret_us(2), 150.0);

  m.record(1, 50.0);
  EXPECT_EQ(m.observations(0), 0u);
  EXPECT_EQ(m.observations(1), 1u);
  EXPECT_EQ(m.observations(2), 0u);
  EXPECT_EQ(m.stage_mret_us(0), 60.0);  // unrecorded stages keep the AFET
  EXPECT_EQ(m.stage_mret_us(1), 50.0);
  EXPECT_EQ(m.stage_mret_us(2), 150.0);
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

TEST(Mret, CachedTotalMatchesFromScratchSum) {
  // total_mret_us() is kept by record() and set_afet(); after every call it
  // must equal the stage-order sum of stage_mret_us() bit for bit, at every
  // window size, through AFET re-seeds that land when only some stages have
  // been observed (those still read the seed) and re-seeds to nullptr.
  for (int ws = 1; ws <= 16; ++ws) {
    common::Rng rng(7000 + static_cast<std::uint64_t>(ws));
    const auto stages = static_cast<std::size_t>(rng.uniform_int(2, 8));
    std::vector<std::vector<double>> seeds(3, std::vector<double>(stages));
    for (auto& seed : seeds) {
      for (double& v : seed) v = rng.uniform(1.0, 5000.0);
    }
    MretEstimator m(stages, static_cast<std::size_t>(ws));
    auto cache_holds = [&]() -> ::testing::AssertionResult {
      double sum = 0.0;
      for (std::size_t j = 0; j < stages; ++j) sum += m.stage_mret_us(j);
      if (bits_of(m.total_mret_us()) == bits_of(sum)) {
        return ::testing::AssertionSuccess();
      }
      return ::testing::AssertionFailure()
             << "ws " << ws << ": cached " << m.total_mret_us()
             << " vs stage sum " << sum;
    };
    m.set_afet(seeds[0].data());
    ASSERT_TRUE(cache_holds());
    // Observe stage 0 only, then re-seed: stages 1.. switch to the new seed.
    m.record(0, rng.uniform(1.0, 5000.0));
    ASSERT_TRUE(cache_holds());
    m.set_afet(seeds[1].data());
    ASSERT_TRUE(cache_holds());
    for (int i = 0; i < 400; ++i) {
      if (rng.uniform(0.0, 1.0) < 0.1) {
        const auto k = static_cast<std::size_t>(rng.uniform_int(0, 3));
        m.set_afet(k < seeds.size() ? seeds[k].data() : nullptr);
      } else {
        // The first half leaves the last stage unobserved.
        const auto last = static_cast<std::int64_t>(stages) - (i < 200 ? 2 : 1);
        m.record(static_cast<std::size_t>(rng.uniform_int(0, last)),
                 rng.uniform(1.0, 5000.0));
      }
      ASSERT_TRUE(cache_holds()) << "after call " << i;
    }
  }
}

/// Property: MRET is always >= the most recent observation and >= every
/// observation still inside the window.
class MretWindowProperty : public ::testing::TestWithParam<int> {};

TEST_P(MretWindowProperty, DominatesWindowContents) {
  const int ws = GetParam();
  MretEstimator m(1, static_cast<std::size_t>(ws));
  std::vector<double> history;
  for (int i = 0; i < 100; ++i) {
    const double v = 50.0 + 40.0 * std::sin(i * 0.7) + i % 7;
    m.record(0, v);
    history.push_back(v);
    const std::size_t start =
        history.size() > static_cast<std::size_t>(ws)
            ? history.size() - static_cast<std::size_t>(ws)
            : 0;
    for (std::size_t j = start; j < history.size(); ++j) {
      ASSERT_GE(m.stage_mret_us(0), history[j]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, MretWindowProperty,
                         ::testing::Values(1, 2, 5, 10));

}  // namespace
}  // namespace daris::rt
