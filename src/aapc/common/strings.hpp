// Small string utilities used across the library (gcc 12 lacks
// std::format, so formatting goes through ostringstream helpers).
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace aapc {

/// Concatenate the stream representations of all arguments.
template <typename... Args>
std::string str_cat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

/// Split on a delimiter; empty tokens are kept (like Python's split).
std::vector<std::string> split(std::string_view text, char delim);

/// Split on arbitrary whitespace runs; empty tokens are dropped.
std::vector<std::string> split_whitespace(std::string_view text);

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);

/// Join with a separator.
std::string join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// Parse a non-negative decimal integer; throws InvalidArgument on junk
/// or on a value above 2^64 - 1.
std::uint64_t parse_u64(std::string_view text);

/// Parse a size with optional K/M/G suffix (powers of two), e.g. "64K";
/// throws InvalidArgument when the size does not fit 64 bits.
std::uint64_t parse_size(std::string_view text);

/// Render a byte count compactly ("64K", "1M", "1000").
std::string format_size(std::uint64_t bytes);

/// Fixed-precision double rendering ("12.34").
std::string format_double(double value, int precision);

/// Shortest decimal rendering that parses back to exactly `value`
/// (std::to_chars). Locale-independent; finite values are valid JSON
/// number tokens.
std::string format_double_roundtrip(double value);

/// Result of parse_json_number: `length` characters of the input were
/// consumed (0 = the input does not start with a JSON number), and the
/// token's value was `out_of_range` when it overflows or underflows a
/// double.
struct ParsedNumber {
  double value = 0;
  std::size_t length = 0;
  bool out_of_range = false;
};

/// Parses a number token at the *start* of `text` with the JSON
/// grammar: -?digits(.digits)?([eE][+-]?digits)?. Locale-independent
/// (std::from_chars) — the decimal separator is always '.', and the
/// hex/infinity/NaN spellings accepted by strtod are rejected. No
/// whitespace is skipped.
ParsedNumber parse_json_number(std::string_view text);

}  // namespace aapc
