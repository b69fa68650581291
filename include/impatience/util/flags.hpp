// Tiny command-line flag parser for benches and examples.
//
//   Flags flags(argc, argv);
//   int trials = flags.get_int("trials", 5);
//   double mu  = flags.get_double("mu", 0.05);
//   bool fast  = flags.get_bool("fast", false);
//   double dl  = flags.get_duration("deadline", 0.0);  // "90", "250ms", "5m"
//
// Accepts --key=value, --key value, and bare --key (boolean true).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace impatience::util {

/// Parses a human-friendly duration into seconds. Grammar:
///   duration := number [unit]
///   unit     := "ms" | "s" | "m" | "h" | "d"
/// A bare number means seconds (back-compatible with the old
/// integer-seconds flags). The number may be fractional ("1.5m" = 90 s)
/// but must be finite and non-negative. Returns std::nullopt on anything
/// else ("", "abc", "10x", "-3s").
std::optional<double> parse_duration(const std::string& text);

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  /// Numeric flags: `fallback` when absent; a present value must parse
  /// in full ("80x", "1e6" as an integer, "0.05abc" are rejected) or
  /// std::invalid_argument naming the flag is thrown.
  int get_int(const std::string& key, int fallback) const;
  long get_long(const std::string& key, long fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  /// Duration flag in seconds via parse_duration ("30s", "5m", "250ms";
  /// a bare number is seconds). `fallback` is returned when the flag is
  /// absent; a present-but-unparsable value throws std::invalid_argument
  /// naming the flag.
  double get_duration(const std::string& key, double fallback) const;

  /// Non-flag positional arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace impatience::util
