#include "aapc/common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <system_error>

#include "aapc/common/error.hpp"

namespace aapc {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_whitespace(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    std::size_t start = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > start) {
      out.emplace_back(text.substr(start, i - start));
    }
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(separator);
    out.append(parts[i]);
  }
  return out;
}

std::uint64_t parse_u64(std::string_view text) {
  const std::string_view body = trim(text);
  AAPC_REQUIRE(!body.empty(), "expected integer, got empty string");
  std::uint64_t value = 0;
  const char* end = body.data() + body.size();
  const std::from_chars_result result =
      std::from_chars(body.data(), end, value);
  AAPC_REQUIRE(result.ec != std::errc::result_out_of_range,
               "integer '" << std::string(text) << "' exceeds 2^64 - 1");
  AAPC_REQUIRE(result.ec == std::errc() && result.ptr == end,
               "expected integer, got '" << std::string(text) << "'");
  return value;
}

std::uint64_t parse_size(std::string_view text) {
  std::string_view body = trim(text);
  AAPC_REQUIRE(!body.empty(), "expected size, got empty string");
  std::uint64_t multiplier = 1;
  const char last = body.back();
  if (last == 'K' || last == 'k') {
    multiplier = 1024;
    body.remove_suffix(1);
  } else if (last == 'M' || last == 'm') {
    multiplier = 1024ull * 1024;
    body.remove_suffix(1);
  } else if (last == 'G' || last == 'g') {
    multiplier = 1024ull * 1024 * 1024;
    body.remove_suffix(1);
  } else if (last == 'B' || last == 'b') {
    body.remove_suffix(1);
  }
  const std::uint64_t value = parse_u64(body);
  AAPC_REQUIRE(value <= UINT64_MAX / multiplier,
               "size '" << std::string(text) << "' exceeds 2^64 - 1 bytes");
  return value * multiplier;
}

std::string format_size(std::uint64_t bytes) {
  constexpr std::uint64_t kKi = 1024;
  constexpr std::uint64_t kMi = kKi * 1024;
  constexpr std::uint64_t kGi = kMi * 1024;
  if (bytes >= kGi && bytes % kGi == 0) return str_cat(bytes / kGi, "G");
  if (bytes >= kMi && bytes % kMi == 0) return str_cat(bytes / kMi, "M");
  if (bytes >= kKi && bytes % kKi == 0) return str_cat(bytes / kKi, "K");
  return str_cat(bytes);
}

std::string format_double(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

std::string format_double_roundtrip(double value) {
  char buffer[64];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

ParsedNumber parse_json_number(std::string_view text) {
  ParsedNumber parsed;
  std::size_t i = 0;
  auto digits = [&] {
    const std::size_t start = i;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') ++i;
    return i > start;
  };
  if (i < text.size() && text[i] == '-') ++i;
  if (!digits()) return parsed;  // length 0: not a number
  if (i < text.size() && text[i] == '.') {
    ++i;
    if (!digits()) return parsed;
  }
  if (i < text.size() && (text[i] == 'e' || text[i] == 'E')) {
    const std::size_t mark = i;
    ++i;
    if (i < text.size() && (text[i] == '+' || text[i] == '-')) ++i;
    if (!digits()) i = mark;  // "1e" / "1e+": the exponent is not part
                              // of the token; stop after the mantissa
  }
  const std::from_chars_result result =
      std::from_chars(text.data(), text.data() + i, parsed.value);
  // The scan above is exactly the from_chars grammar, so the full token
  // parses unless its value does not fit a double.
  parsed.out_of_range = result.ec == std::errc::result_out_of_range;
  parsed.length = i;
  return parsed;
}

}  // namespace aapc
