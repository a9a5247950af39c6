#include <gtest/gtest.h>

#include "common/table.h"

namespace daris::common {
namespace {

TEST(Table, HeaderOnly) {
  Table t({"a", "bb"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| a "), std::string::npos);
  EXPECT_NE(s.find("| bb "), std::string::npos);
  EXPECT_EQ(t.rows(), 0u);
}

TEST(Table, RowsPaddedToHeaderWidth) {
  Table t({"x", "y", "z"});
  t.add_row({"1"});
  EXPECT_EQ(t.rows(), 1u);
  const std::string s = t.to_string();
  // Three columns rendered in every row.
  const std::string last_line = s.substr(s.rfind("| 1"));
  int pipes = 0;
  for (char c : last_line) {
    if (c == '|') ++pipes;
  }
  EXPECT_EQ(pipes, 4);  // leading + 3 separators
}

TEST(Table, ColumnAlignment) {
  Table t({"name", "v"});
  t.add_row({"long-name-here", "1"});
  t.add_row({"x", "22"});
  const std::string s = t.to_string();
  // All lines are equally long (aligned columns).
  std::size_t prev = std::string::npos;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t eol = s.find('\n', pos);
    const std::size_t len = eol - pos;
    if (prev != std::string::npos) {
      EXPECT_EQ(len, prev);
    }
    prev = len;
    pos = eol + 1;
  }
}

TEST(Formatting, FmtDouble) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(3.14159, 0), "3");
  EXPECT_EQ(fmt_double(-1.5, 1), "-1.5");
}

TEST(Formatting, FmtPercent) {
  EXPECT_EQ(fmt_percent(0.1234, 1), "12.3%");
  EXPECT_EQ(fmt_percent(0.0, 2), "0.00%");
  EXPECT_EQ(fmt_percent(1.0, 0), "100%");
}

TEST(Formatting, FmtInt) {
  EXPECT_EQ(fmt_int(0), "0");
  EXPECT_EQ(fmt_int(-42), "-42");
  EXPECT_EQ(fmt_int(123456789LL), "123456789");
}

}  // namespace
}  // namespace daris::common
