#ifndef BACKSORT_ENCODING_BITIO_H_
#define BACKSORT_ENCODING_BITIO_H_

#include <bit>
#include <cstdint>
#include <cstring>

#include "common/status.h"
#include "encoding/bytes.h"

namespace backsort {

namespace bitio_internal {

inline uint64_t FromBigEndian64(uint64_t v) {
  return kHostIsLittleEndian ? __builtin_bswap64(v) : v;
}

}  // namespace bitio_internal

/// MSB-first bit sink on top of ByteBuffer; used by TS_2DIFF bit packing
/// and Gorilla XOR encoding. Bits collect in a 64-bit accumulator that is
/// emitted as one big-endian word when full, so the byte stream is the
/// same as writing one bit at a time, at one buffer append per 8 bytes.
class BitWriter {
 public:
  explicit BitWriter(ByteBuffer* out) : out_(out) {}

  /// Writes the low `bits` (0..64) bits of `value`, most significant first.
  void Write(uint64_t value, int bits) {
    if (bits == 0) return;
    value &= ~uint64_t{0} >> (64 - bits);
    const int free = 64 - filled_;  // 1..64
    if (bits < free) {
      acc_ = (acc_ << bits) | value;
      filled_ += bits;
      return;
    }
    // Complete the word: the accumulator's bits (garbage above `filled_`
    // shifts out) followed by the top `free` bits of `value`.
    const int rest = bits - free;  // 0..63
    PutWord(((acc_ << 1) << (free - 1)) | (value >> rest));
    acc_ = value;
    filled_ = rest;
  }

  /// Pads the final partial byte with zero bits and emits the pending bytes.
  void Flush() {
    if (filled_ == 0) return;
    const uint64_t be =
        bitio_internal::FromBigEndian64(acc_ << (64 - filled_));
    out_->PutBytes(&be, static_cast<size_t>((filled_ + 7) / 8));
    filled_ = 0;
  }

 private:
  void PutWord(uint64_t word) {
    const uint64_t be = bitio_internal::FromBigEndian64(word);
    out_->PutBytes(&be, 8);
  }

  ByteBuffer* out_;
  uint64_t acc_ = 0;  ///< pending bits in the low `filled_` bits
  int filled_ = 0;    ///< 0..63
};

/// MSB-first bit source over the span a ByteReader has left. Reads load a
/// big-endian 64-bit word at the current byte and shift, so a read costs
/// one unaligned load regardless of width; bytes past the end read as
/// zero. `Read` carries no Status: callers check `overrun()` once per
/// decoded unit (a point, a block) and `Finish()` reports it once as
/// Corruption. The ByteReader is untouched until `Finish()`, which
/// advances it past every byte a read touched (partial last byte
/// included), exactly as a byte-at-a-time reader would have left it.
class BitReader {
 public:
  explicit BitReader(ByteReader* in)
      : in_(in), data_(in->cursor()), size_(in->remaining()) {}

  /// Reads `bits` (0..64) bits, most significant first.
  uint64_t Read(int bits) {
    if (bits > kMaxTake) [[unlikely]] {
      const uint64_t hi = Take(bits - 32);
      return (hi << 32) | Take(32);
    }
    return Take(bits);
  }

  /// True once a read went past the end of the span.
  bool overrun() const { return pos_ > size_ * 8; }

  /// Advances the ByteReader past the consumed bytes, or returns
  /// Corruption (leaving it where it was) if any read overran.
  Status Finish() {
    if (overrun()) {
      return Status::Corruption("buffer truncated reading bit-packed data");
    }
    return in_->Skip((pos_ + 7) / 8);
  }

 private:
  // One word at byte pos_/8 holds 64 - (pos_ % 8) >= 57 unread bits.
  static constexpr int kMaxTake = 57;

  uint64_t Take(int bits) {
    const uint64_t word = LoadWord(pos_ >> 3) << (pos_ & 7);
    pos_ += static_cast<size_t>(bits);
    // Two shifts so bits == 0 yields 0 without a shift by 64.
    return (word >> 1) >> (63 - bits);
  }

  uint64_t LoadWord(size_t byte) const {
    if (byte + 8 <= size_) [[likely]] {
      uint64_t w;
      std::memcpy(&w, data_ + byte, 8);
      return bitio_internal::FromBigEndian64(w);
    }
    uint64_t w = 0;
    for (size_t i = 0; i < 8; ++i) {
      w <<= 8;
      if (byte + i < size_) w |= data_[byte + i];
    }
    return w;
  }

  ByteReader* in_;
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;  ///< bits consumed from data_
};

/// Number of bits needed to represent v (0 needs 0 bits).
inline int BitWidthOf(uint64_t v) {
  return static_cast<int>(std::bit_width(v));
}

}  // namespace backsort

#endif  // BACKSORT_ENCODING_BITIO_H_
