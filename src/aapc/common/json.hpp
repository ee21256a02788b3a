// The token layer of the repo's JSON formats: schedule JSON
// (core/schedule_io.hpp), fault plans (faults/fault_plan.hpp) and
// metric snapshots (obs/exposition.hpp) read through one strict
// Reader, and every JSON writer that embeds free text quotes it with
// quote().
//
// The Reader knows tokens, not schemas: each format keeps its own walk
// (known keys only, required fields, semantic checks) in its module.
// Errors are InvalidArgument prefixed with the format's name
// ("schedule JSON: expected ']' at offset 12").
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace aapc::json {

class Reader {
 public:
  /// `format` names the document in every error message.
  Reader(std::string_view text, std::string_view format)
      : text_(text), format_(format) {}

  /// Requires `c` after optional whitespace.
  void expect(char c);
  /// Consumes `c` if it comes next (after optional whitespace).
  bool consume(char c);
  /// A string followed by ':'.
  std::string key();
  /// A string literal. Escapes: \" \\ \/ \n \t \r and \uXXXX for ASCII
  /// code points.
  std::string string();
  /// A JSON number (parse_json_number); a value that does not fit a
  /// double is rejected, not saturated.
  double number();
  /// An integer literal -?digits, read exactly into int64 (a value
  /// outside int64 is rejected, never wrapped) and required to lie in
  /// [lo, hi]. Fraction and exponent spellings ("3.0", "1e3") reject.
  std::int64_t integer(std::int64_t lo, std::int64_t hi);
  /// Requires that only whitespace remains.
  void finish();

 private:
  [[noreturn]] void fail(const std::string& message) const;
  void skip_space();

  std::string_view text_;
  std::string_view format_;
  std::size_t pos_ = 0;
};

/// `text` as a JSON string literal, quotes included: \" \\ \n \t \r,
/// \u00XX for the other control bytes, every other byte as is.
std::string quote(std::string_view text);

}  // namespace aapc::json
