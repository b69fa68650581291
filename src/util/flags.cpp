#include "impatience/util/flags.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace impatience::util {

namespace {

bool looks_like_flag(const std::string& s) {
  return s.size() > 2 && s[0] == '-' && s[1] == '-';
}

/// Parses all of `text` with `parse` (a std::sto* call that reports how
/// many characters it consumed). A failed, out-of-range or partial parse
/// ("1e6" as an int, "80x", "0.05abc") throws std::invalid_argument
/// naming the flag.
template <typename Parse>
auto parse_whole(const std::string& key, const std::string& text,
                 const char* kind, Parse parse) {
  std::size_t consumed = 0;
  try {
    const auto value = parse(text, &consumed);
    if (consumed == text.size()) return value;
  } catch (const std::logic_error&) {
    // std::invalid_argument or std::out_of_range: reported below.
  }
  throw std::invalid_argument(std::string("Flags: bad ") + kind + " for --" +
                              key + ": '" + text + "'");
}

}  // namespace

std::optional<double> parse_duration(const std::string& text) {
  if (text.empty()) return std::nullopt;
  // Split into number prefix and unit suffix at the first alpha char.
  std::size_t unit_at = text.size();
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (std::isalpha(static_cast<unsigned char>(text[i]))) {
      unit_at = i;
      break;
    }
  }
  const std::string number = text.substr(0, unit_at);
  const std::string unit = text.substr(unit_at);
  if (number.empty()) return std::nullopt;

  double value = 0.0;
  std::size_t consumed = 0;
  try {
    value = std::stod(number, &consumed);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (consumed != number.size()) return std::nullopt;
  if (!std::isfinite(value) || value < 0.0) return std::nullopt;

  double scale = 1.0;
  if (unit == "ms") {
    scale = 1e-3;
  } else if (unit.empty() || unit == "s") {
    scale = 1.0;
  } else if (unit == "m") {
    scale = 60.0;
  } else if (unit == "h") {
    scale = 3600.0;
  } else if (unit == "d") {
    scale = 86400.0;
  } else {
    return std::nullopt;
  }
  return value * scale;
}

Flags::Flags(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!looks_like_flag(arg)) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && !looks_like_flag(argv[i + 1])) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
}

std::string Flags::get_string(const std::string& key,
                              const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

int Flags::get_int(const std::string& key, int fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_whole(key, it->second, "integer",
                     [](const std::string& t, std::size_t* n) {
                       return std::stoi(t, n);
                     });
}

long Flags::get_long(const std::string& key, long fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_whole(key, it->second, "integer",
                     [](const std::string& t, std::size_t* n) {
                       return std::stol(t, n);
                     });
}

double Flags::get_double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_whole(key, it->second, "number",
                     [](const std::string& t, std::size_t* n) {
                       return std::stod(t, n);
                     });
}

double Flags::get_duration(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const auto seconds = parse_duration(it->second);
  if (!seconds) {
    throw std::invalid_argument("Flags: bad duration for --" + key + ": '" +
                                it->second +
                                "' (want e.g. 90, 250ms, 30s, 5m, 2h)");
  }
  return *seconds;
}

bool Flags::get_bool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("Flags: bad boolean for --" + key + ": " + v);
}

}  // namespace impatience::util
