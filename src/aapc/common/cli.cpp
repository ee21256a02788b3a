#include "aapc/common/cli.hpp"

#include <charconv>
#include <cmath>
#include <sstream>

#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"

namespace aapc {

CliParser::CliParser(std::string usage) : usage_(std::move(usage)) {}

void CliParser::add_flag(const std::string& name, const std::string& doc,
                         std::optional<std::string> default_value) {
  specs_[name] = FlagSpec{doc, std::move(default_value)};
}

bool CliParser::parse(int argc, const char* const* argv) {
  bool want_help = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      want_help = true;
      continue;
    }
    if (!starts_with(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool have_value = false;
    if (const std::size_t eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      have_value = true;
    }
    AAPC_REQUIRE(specs_.count(name) != 0, "unknown flag --" << name);
    if (!have_value) {
      // Consume the next token as the value unless it looks like a flag;
      // bare flags act as booleans ("true").
      if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    values_[name] = std::move(value);
  }
  return !want_help;
}

bool CliParser::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string CliParser::get(const std::string& name) const {
  if (const auto it = values_.find(name); it != values_.end()) {
    return it->second;
  }
  const auto spec = specs_.find(name);
  AAPC_REQUIRE(spec != specs_.end(), "undeclared flag --" << name);
  AAPC_REQUIRE(spec->second.default_value.has_value(),
               "missing required flag --" << name);
  return *spec->second.default_value;
}

std::string CliParser::get_or(const std::string& name,
                              const std::string& fallback) const {
  if (const auto it = values_.find(name); it != values_.end()) {
    return it->second;
  }
  return fallback;
}

std::uint64_t CliParser::get_u64(const std::string& name,
                                 std::uint64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    return parse_size(it->second);
  } catch (const InvalidArgument& e) {
    throw InvalidArgument("--" + name + ": " + e.what());
  }
}

std::uint64_t CliParser::get_u64(const std::string& name,
                                 std::uint64_t fallback,
                                 std::uint64_t max) const {
  const std::uint64_t value = get_u64(name, fallback);
  AAPC_REQUIRE(value <= max,
               "--" << name << " " << value << " is above " << max);
  return value;
}

double CliParser::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string_view body = trim(it->second);
  const char* end = body.data() + body.size();
  double value = 0;
  const std::from_chars_result result =
      std::from_chars(body.data(), end, value);
  AAPC_REQUIRE(result.ec == std::errc() && result.ptr == end &&
                   std::isfinite(value),
               "--" << name << " expects a finite number, got '"
                    << it->second << "'");
  return value;
}

bool CliParser::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second;
  if (value == "true" || value == "1" || value == "yes") return true;
  AAPC_REQUIRE(value == "false" || value == "0" || value == "no",
               "--" << name << " expects true, false, 1, 0, yes or no, got '"
                    << value << "'");
  return false;
}

std::string CliParser::help_text() const {
  std::ostringstream os;
  os << usage_ << "\n\nFlags:\n";
  for (const auto& [name, spec] : specs_) {
    os << "  --" << name;
    if (spec.default_value) {
      os << " (default: " << *spec.default_value << ")";
    }
    os << "\n      " << spec.doc << "\n";
  }
  os << "  --help\n      Show this message.\n";
  return os.str();
}

}  // namespace aapc
