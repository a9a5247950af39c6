#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "daris/config.h"
#include "daris/mret.h"

namespace daris::rt {
namespace {

TEST(Config, PolicyNames) {
  EXPECT_STREQ(policy_name(Policy::kStr), "STR");
  EXPECT_STREQ(policy_name(Policy::kMps), "MPS");
  EXPECT_STREQ(policy_name(Policy::kMpsStr), "MPS+STR");
}

TEST(Config, StrForcesSingleContext) {
  SchedulerConfig c;
  c.policy = Policy::kStr;
  c.num_contexts = 6;
  c.streams_per_context = 4;
  c.canonicalize();
  EXPECT_EQ(c.num_contexts, 1);
  EXPECT_EQ(c.streams_per_context, 4);
  EXPECT_EQ(c.parallelism(), 4);
}

TEST(Config, MpsForcesSingleStream) {
  SchedulerConfig c;
  c.policy = Policy::kMps;
  c.num_contexts = 6;
  c.streams_per_context = 3;
  c.canonicalize();
  EXPECT_EQ(c.num_contexts, 6);
  EXPECT_EQ(c.streams_per_context, 1);
}

TEST(Config, MpsStrKeepsBoth) {
  SchedulerConfig c;
  c.policy = Policy::kMpsStr;
  c.num_contexts = 3;
  c.streams_per_context = 3;
  c.canonicalize();
  EXPECT_EQ(c.parallelism(), 9);
}

TEST(Config, OversubscriptionClampedToContextCount) {
  SchedulerConfig c;
  c.policy = Policy::kMps;
  c.num_contexts = 4;
  c.oversubscription = 10.0;
  c.canonicalize();
  EXPECT_DOUBLE_EQ(c.oversubscription, 4.0);
  c.oversubscription = 0.2;
  c.canonicalize();
  EXPECT_DOUBLE_EQ(c.oversubscription, 1.0);
}

TEST(Config, LabelFormats) {
  SchedulerConfig c;
  c.policy = Policy::kMps;
  c.num_contexts = 6;
  c.oversubscription = 6.0;
  c.canonicalize();
  EXPECT_EQ(c.label(), "6x1 6");
  SchedulerConfig s;
  s.policy = Policy::kStr;
  s.streams_per_context = 4;
  s.canonicalize();
  EXPECT_EQ(s.label(), "1x4");
}

TEST(Config, DefaultsMatchPaper) {
  const SchedulerConfig c;
  EXPECT_EQ(c.mret_window, 5);  // ws = 5 (Sec. VI-G)
  EXPECT_TRUE(c.staging);
  EXPECT_TRUE(c.prioritize_last_stage);
  EXPECT_TRUE(c.boost_after_miss);
  EXPECT_TRUE(c.fixed_levels);
  EXPECT_TRUE(c.lp_admission);
  EXPECT_FALSE(c.hp_admission);
  EXPECT_EQ(c.batch, 1);
}

TEST(Config, SanitizesDegenerateValues) {
  SchedulerConfig c;
  c.num_contexts = 0;
  c.streams_per_context = -3;
  c.mret_window = 0;
  c.batch = 0;
  c.canonicalize();
  EXPECT_GE(c.num_contexts, 1);
  EXPECT_GE(c.streams_per_context, 1);
  EXPECT_GE(c.mret_window, 1);
  EXPECT_GE(c.batch, 1);
}

TEST(Config, ErrorRefusesAnMretWindowAboveTheBound) {
  // Each recorded stage keeps its last ws samples, so the window is bounded
  // where the runners and the CLI check it; canonicalize() raises the
  // other end to 1.
  const int bound = static_cast<int>(MretEstimator::kMaxWindow);
  SchedulerConfig c;
  EXPECT_EQ(c.error(), "");
  c.mret_window = bound;
  EXPECT_EQ(c.error(), "");
  c.mret_window = 0;
  EXPECT_EQ(c.error(), "");
  for (const int ws : {bound + 1, std::numeric_limits<int>::max()}) {
    c.mret_window = ws;
    EXPECT_NE(c.error().find("MRET window " + std::to_string(ws) +
                             " is above " + std::to_string(bound)),
              std::string::npos)
        << c.error();
  }
}

}  // namespace
}  // namespace daris::rt
