#ifndef BACKSORT_COMMON_PARSE_COUNT_H_
#define BACKSORT_COMMON_PARSE_COUNT_H_

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <system_error>

namespace backsort {

namespace detail {

/// The whole of `text` as one std::from_chars decimal of type T.
template <typename T>
bool ParseDecimal(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  T value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

}  // namespace detail

/// Parses a plain decimal count — the one grammar for every count the
/// engine reads from the environment and bstool reads from its flags.
/// Accepts digits only: empty input, a sign, whitespace, any other
/// character, trailing junk and values beyond SIZE_MAX are rejected, so a
/// typo cannot silently become 0 (auto) and "-1" cannot wrap to SIZE_MAX.
/// On failure returns false and leaves `*out` untouched.
inline bool ParseCount(std::string_view text, size_t* out) {
  return detail::ParseDecimal(text, out);
}

/// Parses a signed decimal timestamp, as bstool reads query bounds:
/// digits with an optional leading '-'. Empty input, '+', whitespace, any
/// other character, trailing junk and values outside int64_t are
/// rejected. On failure returns false and leaves `*out` untouched.
inline bool ParseTimestamp(std::string_view text, int64_t* out) {
  return detail::ParseDecimal(text, out);
}

}  // namespace backsort

#endif  // BACKSORT_COMMON_PARSE_COUNT_H_
