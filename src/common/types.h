#ifndef BACKSORT_COMMON_TYPES_H_
#define BACKSORT_COMMON_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace backsort {

/// Timestamps are a unified signed 64-bit type, as in Apache IoTDB where T
/// is always a Java long regardless of the value type V.
using Timestamp = int64_t;

/// Whether the host stores integers little-endian, i.e. in the byte order
/// of every fixed-width field this project writes to disk or the wire.
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
inline constexpr bool kHostIsLittleEndian = true;
#else
inline constexpr bool kHostIsLittleEndian = false;
#endif

/// One time/value data point. The array index of a TvPair in a buffer is its
/// arrival order (Definition 1 in the paper); `t` is the generation
/// timestamp the series must be sorted by.
template <typename V>
struct TvPair {
  Timestamp t;
  V v;

  friend bool operator==(const TvPair& a, const TvPair& b) {
    return a.t == b.t && a.v == b.v;
  }
};

using TvPairInt = TvPair<int32_t>;
using TvPairLong = TvPair<int64_t>;
using TvPairFloat = TvPair<float>;
using TvPairDouble = TvPair<double>;

/// One sensor's contiguous slice of a multi-sensor write batch. Non-owning:
/// the sensor name and the point array must outlive the span. This is the
/// unit the batched ingest path hands around — engine facade → shard →
/// WAL group-commit record — without copying points at any hop.
struct SensorSpanDouble {
  const std::string* sensor = nullptr;
  const TvPairDouble* points = nullptr;
  size_t count = 0;
};

}  // namespace backsort

#endif  // BACKSORT_COMMON_TYPES_H_
