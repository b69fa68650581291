// Internal reader for the snapshot, delta and manifest formats — the
// inverse of text_out.hpp, used by snapshot_codec.cpp only, not part of
// the public API.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <istream>
#include <string>
#include <string_view>
#include <type_traits>

#include "impatience/util/errors.hpp"

namespace impatience::service::detail {

/// The whole file at `path` in one read.
inline std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw util::IoError("snapshot: cannot open " + path);
  const std::streamoff size = in.tellg();
  std::string text(size > 0 ? static_cast<std::size_t>(size) : 0, '\0');
  if (size < 0 || !in.seekg(0) ||
      !in.read(text.data(), static_cast<std::streamsize>(text.size()))) {
    throw util::IoError("snapshot: cannot read " + path);
  }
  return text;
}

/// Everything left in `in`.
inline std::string read_text_stream(std::istream& in) {
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return text;
}

/// Cursor over the '\n'-terminated lines of a text.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text) : rest_(text) {}

  bool done() const noexcept { return rest_.empty(); }

  /// The next line without its '\n'; throws when the text ends first
  /// (every line of the formats is terminated).
  std::string_view next_line() {
    const std::size_t eol = rest_.find('\n');
    if (eol == std::string_view::npos) {
      throw util::IoError("snapshot: truncated (unexpected end of file)");
    }
    const std::string_view line = rest_.substr(0, eol);
    rest_.remove_prefix(eol + 1);
    return line;
  }

 private:
  std::string_view rest_;
};

/// Fields of one record line, "key f1 f2 ...", in the canonical form
/// TextOut writes: one space before each field, integers in shortest
/// decimal (no sign on an unsigned field, no '+', no leading zero, no
/// "-0"), doubles as %.17g of a finite value. Anything else is a
/// util::IoError naming the field.
class Fields {
 public:
  Fields(std::string_view line, std::string_view key)
      : line_(line), key_(key), pos_(line.data() + key.size()) {
    if (line.substr(0, key.size()) != key ||
        (line.size() > key.size() && line[key.size()] != ' ')) {
      throw util::IoError("snapshot: expected '" + std::string(key) +
                          "' record, got '" +
                          std::string(line.substr(0, line.find(' '))) + "'");
    }
  }

  template <typename T>
  T get(const char* what) {
    const char* first = field_start(what);
    const char* last = line_.data() + line_.size();
    T value{};
    std::from_chars_result result;
    if constexpr (std::is_floating_point_v<T>) {
      result = std::from_chars(first, last, value, std::chars_format::general);
    } else {
      result = std::from_chars(first, last, value);
    }
    if (result.ec != std::errc() || (result.ptr != last && *result.ptr != ' ') ||
        !canonical(first, result.ptr, value)) {
      fail(what);
    }
    pos_ = result.ptr;
    return value;
  }

  /// A 0/1 field.
  bool flag(const char* what) {
    const auto value = get<unsigned>(what);
    if (value > 1) fail(what);
    return value == 1;
  }

  /// The next field as text: non-empty, up to the next space.
  std::string_view word(const char* what) {
    const char* first = field_start(what);
    const char* last = line_.data() + line_.size();
    const char* end = std::find(first, last, ' ');
    if (end == first) fail(what);
    pos_ = end;
    return {first, static_cast<std::size_t>(end - first)};
  }

  /// All that is left of the line after one space; non-empty.
  std::string_view rest(const char* what) {
    const char* first = field_start(what);
    const char* last = line_.data() + line_.size();
    if (first == last) fail(what);
    pos_ = last;
    return {first, static_cast<std::size_t>(last - first)};
  }

  /// Throws unless every byte of the line was read: no field past the
  /// declared count.
  void finish() const {
    if (pos_ != line_.data() + line_.size()) {
      throw util::IoError("snapshot: bytes after the last field of '" +
                          std::string(key_) + "'");
    }
  }

  /// Capacity safe to reserve for a declared, untrusted `count` of
  /// entries of `tokens` fields each: no more than the line can hold,
  /// since every field takes a separator and at least one character.
  std::size_t capacity_for(std::size_t count, std::size_t tokens) const {
    return std::min(count, line_.size() / (2 * tokens));
  }

 private:
  const char* field_start(const char* what) {
    if (pos_ == line_.data() + line_.size() || *pos_ != ' ') fail(what);
    return pos_ + 1;
  }

  template <typename T>
  static bool canonical(const char* first, const char* last, T value) {
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(value)) return false;
      char buf[32];
      const auto out = std::to_chars(buf, buf + sizeof(buf), value,
                                     std::chars_format::general, 17);
      return std::string_view(buf, static_cast<std::size_t>(out.ptr - buf)) ==
             std::string_view(first, static_cast<std::size_t>(last - first));
    } else {
      // from_chars already refuses '+', and '-' on an unsigned type.
      const char* digits = *first == '-' ? first + 1 : first;
      return *digits != '0' || (digits == first && last - digits == 1);
    }
  }

  [[noreturn]] static void fail(const char* what) {
    throw util::IoError(std::string("snapshot: bad or missing field: ") +
                        what);
  }

  std::string_view line_;
  std::string_view key_;
  const char* pos_;
};

}  // namespace impatience::service::detail
