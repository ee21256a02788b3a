// Tiny command-line flag parser for examples and benchmark drivers.
// Supports --name=value, --name value, and boolean --name forms, plus
// positional arguments. Unknown flags are an error so typos surface.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace aapc {

class CliParser {
 public:
  /// `usage` is printed by `help_text()` ahead of the flag list.
  explicit CliParser(std::string usage);

  /// Declare flags before parse(). `doc` appears in help_text().
  void add_flag(const std::string& name, const std::string& doc,
                std::optional<std::string> default_value = std::nullopt);

  /// Parse argv; throws InvalidArgument on unknown flags or missing
  /// values. Returns false if --help was requested (help already built).
  bool parse(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name) const;
  std::string get_or(const std::string& name,
                     const std::string& fallback) const;
  /// Reads an integer with an optional K/M/G suffix; throws
  /// InvalidArgument naming the flag on junk and on overflow.
  std::uint64_t get_u64(const std::string& name, std::uint64_t fallback) const;
  /// Same, but throws InvalidArgument when the value exceeds `max`, so a
  /// caller narrowing to a smaller type never truncates.
  std::uint64_t get_u64(const std::string& name, std::uint64_t fallback,
                        std::uint64_t max) const;
  /// Reads the whole value as a finite decimal number; throws
  /// InvalidArgument on junk, trailing junk, nan, inf and overflow.
  double get_double(const std::string& name, double fallback) const;
  /// Reads true/1/yes or false/0/no (a bare flag reads "true"); throws
  /// InvalidArgument naming the flag on any other value.
  bool get_bool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  std::string help_text() const;

 private:
  struct FlagSpec {
    std::string doc;
    std::optional<std::string> default_value;
  };

  std::string usage_;
  std::map<std::string, FlagSpec> specs_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace aapc
