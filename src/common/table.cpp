#include "common/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace daris::common {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << "| " << row[c];
      out << std::string(widths[c] - row[c].size() + 1, ' ');
    }
    out << "|\n";
  };
  emit_row(header_);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    out << "|" << std::string(widths[c] + 2, '-');
  }
  out << "|\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string fmt_double(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string fmt_percent(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string fmt_int(long long value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", value);
  return buf;
}

}  // namespace daris::common
