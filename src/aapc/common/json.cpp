#include "aapc/common/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"

namespace aapc::json {

void Reader::fail(const std::string& message) const {
  throw InvalidArgument(std::string(format_) + ": " + message);
}

void Reader::skip_space() {
  while (pos_ < text_.size() &&
         std::isspace(static_cast<unsigned char>(text_[pos_]))) {
    ++pos_;
  }
}

void Reader::expect(char c) {
  skip_space();
  if (pos_ >= text_.size() || text_[pos_] != c) {
    fail(str_cat("expected '", c, "' at offset ", pos_));
  }
  ++pos_;
}

bool Reader::consume(char c) {
  skip_space();
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

std::string Reader::key() {
  std::string out = string();
  expect(':');
  return out;
}

std::string Reader::string() {
  expect('"');
  std::string out;
  while (pos_ < text_.size() && text_[pos_] != '"') {
    char c = text_[pos_++];
    if (c == '\\') {
      if (pos_ >= text_.size()) {
        fail(str_cat("dangling escape at offset ", pos_));
      }
      switch (text_[pos_++]) {
        case '"': c = '"'; break;
        case '\\': c = '\\'; break;
        case '/': c = '/'; break;
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'r': c = '\r'; break;
        case 'u': {
          const char* first = text_.data() + pos_;
          const char* last =
              first + std::min<std::size_t>(4, text_.size() - pos_);
          unsigned code = 0;
          const auto [end, ec] = std::from_chars(first, last, code, 16);
          if (ec != std::errc() || end != first + 4 || code > 0x7f) {
            fail(str_cat("\\u escape at offset ", pos_ - 2,
                         " is not an ASCII code point in 4 hex digits"));
          }
          pos_ += 4;
          c = static_cast<char>(code);
          break;
        }
        default:
          fail(str_cat("unknown escape at offset ", pos_ - 2));
      }
    }
    out.push_back(c);
  }
  expect('"');
  return out;
}

double Reader::number() {
  skip_space();
  const ParsedNumber parsed = parse_json_number(text_.substr(pos_));
  if (parsed.length == 0) fail(str_cat("expected number at offset ", pos_));
  if (parsed.out_of_range) {
    fail(str_cat("number at offset ", pos_, " is out of range for a double: ",
                 text_.substr(pos_, parsed.length)));
  }
  pos_ += parsed.length;
  return parsed.value;
}

std::int64_t Reader::integer(std::int64_t lo, std::int64_t hi) {
  skip_space();
  const char* first = text_.data() + pos_;
  const char* last = text_.data() + text_.size();
  std::int64_t value = 0;
  const auto [end, ec] = std::from_chars(first, last, value);
  const std::string_view digits(first, static_cast<std::size_t>(end - first));
  if (ec == std::errc::invalid_argument ||
      (end != last && (*end == '.' || *end == 'e' || *end == 'E'))) {
    fail(str_cat("expected integer at offset ", pos_));
  }
  if (ec == std::errc::result_out_of_range) {
    fail(str_cat("integer at offset ", pos_, " does not fit 64 bits: ",
                 digits));
  }
  if (value < lo || value > hi) {
    fail(str_cat("integer ", value, " at offset ", pos_, " is outside [", lo,
                 ", ", hi, "]"));
  }
  pos_ += digits.size();
  return value;
}

void Reader::finish() {
  skip_space();
  if (pos_ != text_.size()) fail(str_cat("trailing content at offset ", pos_));
}

std::string quote(std::string_view text) {
  constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          out += "\\u00";
          out.push_back(kHex[byte >> 4]);
          out.push_back(kHex[byte & 0xf]);
        } else {
          out.push_back(c);
        }
      }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace aapc::json
