// Whole-string number parsing for the command-line tools: a flag value is
// accepted only when every character of it belongs to one number of the
// wanted type.
#pragma once

#include <charconv>
#include <cstring>
#include <system_error>

namespace daris::common {

/// Parses all of `text` as one T. False on anything else: "abc", "2x", "",
/// a sign an unsigned T cannot hold ("-1"), or a value out of T's range.
/// Floating-point T accepts "inf" and "nan"; callers range-check.
template <typename T>
bool parse_whole(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end && ptr != text;
}

}  // namespace daris::common
