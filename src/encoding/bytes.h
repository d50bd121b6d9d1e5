#ifndef BACKSORT_ENCODING_BYTES_H_
#define BACKSORT_ENCODING_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace backsort {

/// Growable little-endian byte sink used by all encoders and the TsFile
/// writer.
class ByteBuffer {
 public:
  void PutU8(uint8_t v) { data_.push_back(v); }

  // The fixed-width writers stage into a local array and append with one
  // insert: eight separate push_backs cost a capacity check and branch
  // each, which dominates hot encode loops (point batches, TsFile pages);
  // the shift form keeps the output little-endian on any host and
  // compiles to a plain store where the host already is.
  void PutFixed32(uint32_t v) {
    uint8_t b[4];
    for (int i = 0; i < 4; ++i) b[i] = (v >> (8 * i)) & 0xff;
    PutBytes(b, 4);
  }

  void PutFixed64(uint64_t v) {
    uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = (v >> (8 * i)) & 0xff;
    PutBytes(b, 8);
  }

  void PutBytes(const void* src, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(src);
    data_.insert(data_.end(), p, p + n);
  }

  /// LEB128 unsigned varint.
  void PutVarint64(uint64_t v) {
    while (v >= 0x80) {
      data_.push_back(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    data_.push_back(static_cast<uint8_t>(v));
  }

  /// Zigzag-mapped signed varint.
  void PutVarintSigned64(int64_t v) {
    PutVarint64((static_cast<uint64_t>(v) << 1) ^
                static_cast<uint64_t>(v >> 63));
  }

  void PutLengthPrefixedString(std::string_view s) {
    PutVarint64(s.size());
    PutBytes(s.data(), s.size());
  }

  /// Overwrites 4 already-written bytes at `offset` with `v` in little
  /// endian — for fixed-width fields (frame sizes, CRCs) whose value is
  /// only known after the bytes that follow them have been encoded.
  void PatchFixed32(size_t offset, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      data_.at(offset + static_cast<size_t>(i)) = (v >> (8 * i)) & 0xff;
    }
  }

  const std::vector<uint8_t>& data() const { return data_; }
  size_t size() const { return data_.size(); }
  void Clear() { data_.clear(); }

  void Append(const ByteBuffer& other) {
    data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  }

 private:
  std::vector<uint8_t> data_;
};

/// Bounds-checked sequential reader over a byte span. Every accessor
/// returns Corruption instead of reading past the end, so truncated or
/// damaged files fail cleanly (failure-injection tests rely on this).
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  size_t position() const { return pos_; }
  /// The next unread byte (valid for remaining() bytes).
  const uint8_t* cursor() const { return data_ + pos_; }
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ >= size_; }

  Status GetU8(uint8_t* out) {
    if (remaining() < 1) return Truncated("u8");
    *out = data_[pos_++];
    return Status::OK();
  }

  Status GetFixed32(uint32_t* out) {
    if (remaining() < 4) return Truncated("fixed32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
    *out = v;
    return Status::OK();
  }

  Status GetFixed64(uint64_t* out) {
    if (remaining() < 8) return Truncated("fixed64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
    *out = v;
    return Status::OK();
  }

  // All bounds checks compare the requested count against remaining()
  // rather than computing pos_ + n, which would wrap for attacker-chosen
  // n near SIZE_MAX and let the check pass (these decoders see raw
  // network payloads, where every length field is untrusted).
  Status GetBytes(void* dst, size_t n) {
    if (n > remaining()) return Truncated("bytes");
    // An empty destination vector's data() is null, and memcpy with a null
    // pointer is undefined even for zero bytes.
    if (n == 0) return Status::OK();
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Status GetVarint64(uint64_t* out) {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= size_) return Truncated("varint");
      const uint8_t byte = data_[pos_++];
      if (shift >= 63 && byte > 1) {
        return Status::Corruption("varint64 overflow");
      }
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    *out = v;
    return Status::OK();
  }

  Status GetVarintSigned64(int64_t* out) {
    uint64_t u = 0;
    RETURN_NOT_OK(GetVarint64(&u));
    *out = static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
    return Status::OK();
  }

  Status GetLengthPrefixedString(std::string* out) {
    uint64_t len = 0;
    RETURN_NOT_OK(GetVarint64(&len));
    if (len > remaining()) return Truncated("string body");
    out->assign(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return Status::OK();
  }

  Status Skip(size_t n) {
    if (n > remaining()) return Truncated("skip");
    pos_ += n;
    return Status::OK();
  }

 private:
  Status Truncated(const char* what) {
    return Status::Corruption(std::string("buffer truncated reading ") + what);
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// The point layout of the WAL and the BSN1 wire: fixed64 LE timestamp,
// then fixed64 LE IEEE-754 value bits, 16 bytes a point. That is
// TvPairDouble's own memory on a little-endian host, so a run of points
// moves as one memcpy in both directions; big-endian hosts take the
// per-field path.
inline constexpr size_t kPointBytes = 16;
static_assert(sizeof(TvPairDouble) == kPointBytes);
static_assert(offsetof(TvPairDouble, t) == 0);
static_assert(offsetof(TvPairDouble, v) == 8);
inline constexpr bool kPointsAreWireLayout = kHostIsLittleEndian;

/// Appends `n` points in the point layout.
inline void PutPoints(const TvPairDouble* points, size_t n, ByteBuffer* out) {
  if constexpr (kPointsAreWireLayout) {
    out->PutBytes(points, n * kPointBytes);
  } else {
    for (size_t i = 0; i < n; ++i) {
      uint64_t bits = 0;
      std::memcpy(&bits, &points[i].v, sizeof(bits));
      out->PutFixed64(static_cast<uint64_t>(points[i].t));
      out->PutFixed64(bits);
    }
  }
}

/// Reads `n` points in the point layout into `out`, replacing its
/// contents. `n` is checked against the bytes left before anything is
/// allocated, so an untrusted count cannot ask for more memory than the
/// buffer could fill.
inline Status GetPoints(ByteReader* reader, uint64_t n,
                        std::vector<TvPairDouble>* out) {
  if (n > reader->remaining() / kPointBytes) {
    return Status::Corruption("point count exceeds buffer");
  }
  out->resize(static_cast<size_t>(n));
  if constexpr (kPointsAreWireLayout) {
    return reader->GetBytes(out->data(), out->size() * kPointBytes);
  } else {
    for (TvPairDouble& p : *out) {
      uint64_t t_bits = 0, v_bits = 0;
      RETURN_NOT_OK(reader->GetFixed64(&t_bits));
      RETURN_NOT_OK(reader->GetFixed64(&v_bits));
      p.t = static_cast<Timestamp>(t_bits);
      std::memcpy(&p.v, &v_bits, sizeof(p.v));
    }
    return Status::OK();
  }
}

}  // namespace backsort

#endif  // BACKSORT_ENCODING_BYTES_H_
