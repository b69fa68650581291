// Internal helper for the snapshot, delta and manifest writers — used by
// snapshot_codec.cpp only, not part of the public API.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>

#include "impatience/engine/artifacts.hpp"

namespace impatience::service::detail {

/// Append-only text for the persistent formats: std::to_chars straight
/// into one std::string, reserved up front, so a record costs a few small
/// copies and no stream state. Integers print in decimal and doubles as
/// to_chars(general, 17), which the standard specifies as printf's %.17g:
/// the bytes of the std::ostream writers the formats were defined with
/// (tests/service/snapshot_writer_test.cpp keeps those as the oracle).
class TextOut {
 public:
  explicit TextOut(std::size_t reserve) { text_.reserve(reserve); }

  TextOut& operator<<(std::string_view s) {
    text_.append(s);
    return *this;
  }
  TextOut& operator<<(char c) {
    text_.push_back(c);
    return *this;
  }
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, char> &&
             !std::is_same_v<T, bool>)
  TextOut& operator<<(T v) {
    char buf[24];
    const auto result = std::to_chars(buf, buf + sizeof(buf), v);
    text_.append(buf, result.ptr);
    return *this;
  }
  /// %.17g: round-trips every finite double through text exactly.
  TextOut& operator<<(double v) {
    char buf[32];
    const auto result = std::to_chars(buf, buf + sizeof(buf), v,
                                      std::chars_format::general, 17);
    text_.append(buf, result.ptr);
    return *this;
  }

  /// Appends `v` as 16 lowercase hex digits, zero-padded (%016 PRIx64).
  TextOut& hex16(std::uint64_t v) {
    char buf[16];
    const auto result = std::to_chars(buf, buf + sizeof(buf), v, 16);
    text_.append(16 - static_cast<std::size_t>(result.ptr - buf), '0');
    text_.append(buf, result.ptr);
    return *this;
  }

  const std::string& str() const noexcept { return text_; }
  std::string& str() noexcept { return text_; }

 private:
  std::string text_;
};

/// Crash-safe write of finished text (engine::atomic_write_file): one
/// write call, then temp fsync + rename.
inline void write_text_file(const std::string& path, const std::string& text) {
  engine::atomic_write_file(path, [&text](std::ostream& out) {
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  });
}

}  // namespace impatience::service::detail
