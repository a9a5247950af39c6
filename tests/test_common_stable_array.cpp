// common::StableArray: element i is found across the doubling and the
// fixed-size blocks, and no element moves while the array grows.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/stable_array.h"

namespace daris::common {
namespace {

TEST(StableArray, IndexesEveryElementAndNeverMovesOne) {
  StableArray<int> a;
  EXPECT_TRUE(a.empty());
  // 2000 elements: the four doubling blocks (240) and seven fixed ones.
  std::vector<const int*> addresses;
  for (int i = 0; i < 2000; ++i) addresses.push_back(&a.emplace_back(i));
  ASSERT_EQ(a.size(), 2000u);
  const StableArray<int>& view = a;
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    ASSERT_EQ(view[i], static_cast<int>(i)) << "element " << i;
    ASSERT_EQ(&a[i], addresses[i]) << "element " << i;
  }
}

}  // namespace
}  // namespace daris::common
