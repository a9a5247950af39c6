// Plain-text table formatting for bench/experiment output.
//
// Every bench binary prints paper-expected vs measured rows through this, so
// the output is uniform and two runs' stdout can be diffed line by line.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace daris::common {

/// Column-aligned text table with a header row.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; pads/truncates to the header width.
  void add_row(std::vector<std::string> row);

  /// Renders with column alignment and a separator under the header.
  std::string to_string() const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style helpers for numeric cells.
std::string fmt_double(double value, int precision = 2);
std::string fmt_percent(double fraction, int precision = 2);
std::string fmt_int(long long value);

}  // namespace daris::common
