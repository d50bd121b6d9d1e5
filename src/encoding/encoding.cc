#include "encoding/encoding.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "encoding/bitio.h"

namespace backsort {

std::string EncodingName(Encoding e) {
  switch (e) {
    case Encoding::kPlain:
      return "PLAIN";
    case Encoding::kTs2Diff:
      return "TS_2DIFF";
    case Encoding::kRle:
      return "RLE";
    case Encoding::kGorilla:
      return "GORILLA";
    case Encoding::kSimple8b:
      return "SIMPLE8B";
  }
  return "unknown";
}

// --- PLAIN ------------------------------------------------------------------

void EncodePlainI64(const std::vector<int64_t>& in, ByteBuffer* out) {
  for (int64_t v : in) out->PutFixed64(static_cast<uint64_t>(v));
}

Status DecodePlainI64(ByteReader* in, size_t count,
                      std::vector<int64_t>* out) {
  out->clear();
  out->reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t u = 0;
    RETURN_NOT_OK(in->GetFixed64(&u));
    out->push_back(static_cast<int64_t>(u));
  }
  return Status::OK();
}

// --- TS_2DIFF ----------------------------------------------------------------

namespace {
constexpr size_t kTs2DiffBlockSize = 128;

// Deltas and prefix sums wrap modulo 2^64 (two's complement): extreme
// timestamps must encode and decode without signed-overflow UB, and the
// wrapped values are exactly what the format has always stored.
int64_t WrappingSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
}  // namespace

void EncodeTs2DiffI64(const std::vector<int64_t>& in, ByteBuffer* out) {
  if (in.empty()) return;
  out->PutVarintSigned64(in[0]);
  const size_t n = in.size();
  size_t next = 1;
  std::vector<uint64_t> adjusted;
  adjusted.reserve(kTs2DiffBlockSize);
  while (next < n) {
    const size_t block_n = std::min(kTs2DiffBlockSize, n - next);
    // Deltas for this block.
    int64_t min_delta = WrappingSub(in[next], in[next - 1]);
    for (size_t i = 1; i < block_n; ++i) {
      min_delta =
          std::min(min_delta, WrappingSub(in[next + i], in[next + i - 1]));
    }
    adjusted.clear();
    uint64_t max_adj = 0;
    for (size_t i = 0; i < block_n; ++i) {
      const uint64_t adj = static_cast<uint64_t>(
          WrappingSub(WrappingSub(in[next + i], in[next + i - 1]), min_delta));
      adjusted.push_back(adj);
      max_adj = std::max(max_adj, adj);
    }
    const int width = BitWidthOf(max_adj);
    out->PutVarintSigned64(min_delta);
    out->PutU8(static_cast<uint8_t>(width));
    BitWriter bw(out);
    for (uint64_t adj : adjusted) {
      bw.Write(adj, width);
    }
    bw.Flush();
    next += block_n;
  }
}

Status DecodeTs2DiffI64(ByteReader* in, size_t count,
                        std::vector<int64_t>* out) {
  out->clear();
  if (count == 0) return Status::OK();
  out->resize(count);
  int64_t first = 0;
  RETURN_NOT_OK(in->GetVarintSigned64(&first));
  int64_t* dst = out->data();
  *dst++ = first;
  uint64_t prev = static_cast<uint64_t>(first);
  size_t decoded = 1;
  // Block-at-a-time unpack into pre-sized storage: the running value stays
  // in a register and the inner loop carries no push_back capacity checks,
  // so a whole page materializes with branch-light prefix summing.
  while (decoded < count) {
    const size_t block_n = std::min(kTs2DiffBlockSize, count - decoded);
    int64_t min_delta = 0;
    RETURN_NOT_OK(in->GetVarintSigned64(&min_delta));
    uint8_t width = 0;
    RETURN_NOT_OK(in->GetU8(&width));
    if (width > 64) return Status::Corruption("ts2diff bit width > 64");
    const uint64_t step = static_cast<uint64_t>(min_delta);
    if (width == 0) {
      // Constant-stride block (regular sampling, the common case): no bit
      // reads at all, just an arithmetic ramp.
      for (size_t i = 0; i < block_n; ++i) {
        prev += step;
        *dst++ = static_cast<int64_t>(prev);
      }
      decoded += block_n;
      continue;
    }
    // Bounds are checked once per block: reads past the end yield zero
    // bits, and Finish() turns any overrun into Corruption.
    BitReader br(in);
    for (size_t i = 0; i < block_n; ++i) {
      prev += br.Read(width) + step;
      *dst++ = static_cast<int64_t>(prev);
    }
    RETURN_NOT_OK(br.Finish());
    decoded += block_n;
  }
  return Status::OK();
}

// --- RLE ----------------------------------------------------------------------

void EncodeRleI64(const std::vector<int64_t>& in, ByteBuffer* out) {
  size_t i = 0;
  while (i < in.size()) {
    size_t j = i + 1;
    while (j < in.size() && in[j] == in[i]) ++j;
    out->PutVarintSigned64(in[i]);
    out->PutVarint64(j - i);
    i = j;
  }
}

Status DecodeRleI64(ByteReader* in, size_t count, std::vector<int64_t>* out) {
  out->clear();
  out->reserve(count);
  while (out->size() < count) {
    int64_t value = 0;
    RETURN_NOT_OK(in->GetVarintSigned64(&value));
    uint64_t run = 0;
    RETURN_NOT_OK(in->GetVarint64(&run));
    if (run == 0 || out->size() + run > count) {
      return Status::Corruption("RLE run overflows page point count");
    }
    out->insert(out->end(), static_cast<size_t>(run), value);
  }
  return Status::OK();
}

// --- SIMPLE8B ----------------------------------------------------------------

namespace {

struct Simple8bMode {
  uint32_t count;  // integers per word
  uint32_t bits;   // bits per integer
};

// Selector table (Anh & Moffat; the InfluxDB variant). Selector = index.
constexpr Simple8bMode kSimple8bModes[16] = {
    {240, 0}, {120, 0}, {60, 1}, {30, 2}, {20, 3}, {15, 4}, {12, 5}, {10, 6},
    {8, 7},   {7, 8},   {6, 10}, {5, 12}, {4, 15}, {3, 20}, {2, 30}, {1, 60},
};

}  // namespace

Status EncodeSimple8bU64(const std::vector<uint64_t>& in, ByteBuffer* out) {
  for (uint64_t v : in) {
    if (v >= (uint64_t{1} << 60)) {
      return Status::OutOfRange("simple8b value >= 2^60");
    }
  }
  size_t pos = 0;
  while (pos < in.size()) {
    // Greedy: find the densest selector that fits the next run.
    int chosen = -1;
    size_t chosen_n = 0;
    for (int sel = 0; sel < 16; ++sel) {
      const Simple8bMode mode = kSimple8bModes[sel];
      const size_t n = std::min<size_t>(mode.count, in.size() - pos);
      // Selectors 0/1 (0 bits) only apply when every packed value is 0 and
      // the run fills the word completely (count values available).
      if (mode.bits == 0) {
        if (in.size() - pos < mode.count) continue;
        bool all_zero = true;
        for (size_t i = 0; i < mode.count; ++i) {
          if (in[pos + i] != 0) {
            all_zero = false;
            break;
          }
        }
        if (!all_zero) continue;
        chosen = sel;
        chosen_n = mode.count;
        break;
      }
      bool fits = true;
      for (size_t i = 0; i < n; i += 1) {
        if ((in[pos + i] >> mode.bits) != 0) {
          fits = false;
          break;
        }
      }
      if (fits && n == mode.count) {
        chosen = sel;
        chosen_n = n;
        break;
      }
      if (fits && chosen == -1) {
        // Tail word: remember the densest selector that covers the whole
        // remainder.
        chosen = sel;
        chosen_n = n;
      }
    }
    if (chosen < 0) {
      return Status::OutOfRange("simple8b could not pack value");
    }
    const Simple8bMode mode = kSimple8bModes[chosen];
    uint64_t word = static_cast<uint64_t>(chosen) << 60;
    for (size_t i = 0; i < chosen_n && mode.bits > 0; ++i) {
      word |= in[pos + i] << (i * mode.bits);
    }
    out->PutFixed64(word);
    pos += chosen_n;
  }
  return Status::OK();
}

Status DecodeSimple8bU64(ByteReader* in, size_t count,
                         std::vector<uint64_t>* out) {
  out->clear();
  out->reserve(count);
  while (out->size() < count) {
    uint64_t word = 0;
    RETURN_NOT_OK(in->GetFixed64(&word));
    const uint32_t sel = static_cast<uint32_t>(word >> 60);
    const Simple8bMode mode = kSimple8bModes[sel];
    const uint64_t mask =
        mode.bits == 0 ? 0 : (~uint64_t{0} >> (64 - mode.bits));
    for (uint32_t i = 0; i < mode.count && out->size() < count; ++i) {
      out->push_back(mode.bits == 0 ? 0 : (word >> (i * mode.bits)) & mask);
    }
  }
  return Status::OK();
}

Status EncodeSimple8bDeltaI64(const std::vector<int64_t>& in,
                              ByteBuffer* out) {
  if (in.empty()) return Status::OK();
  out->PutVarintSigned64(in[0]);
  std::vector<uint64_t> zz(in.size() - 1);
  for (size_t i = 1; i < in.size(); ++i) {
    const int64_t delta = in[i] - in[i - 1];
    zz[i - 1] = (static_cast<uint64_t>(delta) << 1) ^
                static_cast<uint64_t>(delta >> 63);
  }
  return EncodeSimple8bU64(zz, out);
}

Status DecodeSimple8bDeltaI64(ByteReader* in, size_t count,
                              std::vector<int64_t>* out) {
  out->clear();
  if (count == 0) return Status::OK();
  out->reserve(count);
  int64_t first = 0;
  RETURN_NOT_OK(in->GetVarintSigned64(&first));
  out->push_back(first);
  std::vector<uint64_t> zz;
  RETURN_NOT_OK(DecodeSimple8bU64(in, count - 1, &zz));
  for (uint64_t u : zz) {
    const int64_t delta = static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
    out->push_back(out->back() + delta);
  }
  return Status::OK();
}

// --- GORILLA ---------------------------------------------------------------------

void EncodeGorillaF64(const std::vector<double>& in, ByteBuffer* out) {
  if (in.empty()) return;
  uint64_t prev = 0;
  std::memcpy(&prev, &in[0], sizeof(prev));
  out->PutFixed64(prev);
  BitWriter bw(out);
  int prev_leading = -1;
  int prev_meaningful = 0;
  for (size_t i = 1; i < in.size(); ++i) {
    uint64_t cur = 0;
    std::memcpy(&cur, &in[i], sizeof(cur));
    const uint64_t x = cur ^ prev;
    prev = cur;
    if (x == 0) {
      bw.Write(0, 1);
      continue;
    }
    int leading = std::countl_zero(x);
    const int trailing = std::countr_zero(x);
    if (leading > 31) leading = 31;  // 5-bit field
    const int meaningful = 64 - leading - trailing;
    if (prev_leading >= 0 && leading >= prev_leading &&
        (64 - prev_leading - prev_meaningful) <= trailing) {
      // Fits inside the previous window: changed bit 1, control bit 0.
      bw.Write(0b10, 2);
      bw.Write(x >> (64 - prev_leading - prev_meaningful), prev_meaningful);
    } else {
      // New window: changed bit 1, control bit 1, 5 bits leading, 6 bits
      // length (64 wraps to 0).
      bw.Write((uint64_t{0b11} << 11) | (static_cast<uint64_t>(leading) << 6) |
                   (static_cast<uint64_t>(meaningful) & 63),
               13);
      bw.Write(x >> trailing, meaningful);
      prev_leading = leading;
      prev_meaningful = meaningful;
    }
  }
  bw.Flush();
}

Status DecodeGorillaF64(ByteReader* in, size_t count,
                        std::vector<double>* out) {
  out->clear();
  if (count == 0) return Status::OK();
  out->resize(count);
  uint64_t prev = 0;
  RETURN_NOT_OK(in->GetFixed64(&prev));
  double* dst = out->data();
  std::memcpy(dst, &prev, sizeof(double));
  ++dst;
  BitReader br(in);
  int shift = 0;  // 64 - leading - meaningful, hoisted out of the loop
  int meaningful = 0;
  // Page-at-a-time unpack into pre-sized storage: repeated values (the
  // Gorilla fast case) cost one bit read and one store, and the XOR
  // window shift is recomputed only when the window changes. Bounds are
  // checked once per point; reads past the end yield zero bits.
  for (size_t i = 1; i < count; ++i) {
    if (br.Read(1) != 0) {
      if (br.Read(1) != 0) {
        const uint64_t header = br.Read(11);  // 5 bits leading, 6 length
        const int leading = static_cast<int>(header >> 6);
        meaningful = static_cast<int>(header & 63);
        if (meaningful == 0) meaningful = 64;  // 6-bit field wraps at 64
        if (leading + meaningful > 64) {
          return Status::Corruption("gorilla window exceeds 64 bits");
        }
        shift = 64 - leading - meaningful;
      }
      prev ^= br.Read(meaningful) << shift;
    }
    if (br.overrun()) return br.Finish();
    std::memcpy(dst, &prev, sizeof(double));
    ++dst;
  }
  return br.Finish();
}

// --- dispatch ------------------------------------------------------------------

Status EncodeI64(Encoding e, const std::vector<int64_t>& in, ByteBuffer* out) {
  switch (e) {
    case Encoding::kPlain:
      EncodePlainI64(in, out);
      return Status::OK();
    case Encoding::kTs2Diff:
      EncodeTs2DiffI64(in, out);
      return Status::OK();
    case Encoding::kRle:
      EncodeRleI64(in, out);
      return Status::OK();
    case Encoding::kSimple8b:
      return EncodeSimple8bDeltaI64(in, out);
    case Encoding::kGorilla:
      return Status::NotSupported("GORILLA is a floating-point encoding");
  }
  return Status::InvalidArgument("unknown encoding");
}

Status DecodeI64(Encoding e, ByteReader* in, size_t count,
                 std::vector<int64_t>* out) {
  switch (e) {
    case Encoding::kPlain:
      return DecodePlainI64(in, count, out);
    case Encoding::kTs2Diff:
      return DecodeTs2DiffI64(in, count, out);
    case Encoding::kRle:
      return DecodeRleI64(in, count, out);
    case Encoding::kSimple8b:
      return DecodeSimple8bDeltaI64(in, count, out);
    case Encoding::kGorilla:
      return Status::NotSupported("GORILLA is a floating-point encoding");
  }
  return Status::InvalidArgument("unknown encoding");
}

Status EncodeF64(Encoding e, const std::vector<double>& in, ByteBuffer* out) {
  switch (e) {
    case Encoding::kPlain: {
      for (double v : in) {
        uint64_t u = 0;
        std::memcpy(&u, &v, sizeof(u));
        out->PutFixed64(u);
      }
      return Status::OK();
    }
    case Encoding::kGorilla:
      EncodeGorillaF64(in, out);
      return Status::OK();
    case Encoding::kTs2Diff:
    case Encoding::kRle:
    case Encoding::kSimple8b:
      return Status::NotSupported("integer encoding applied to doubles");
  }
  return Status::InvalidArgument("unknown encoding");
}

Status DecodeF64(Encoding e, ByteReader* in, size_t count,
                 std::vector<double>* out) {
  switch (e) {
    case Encoding::kPlain: {
      out->clear();
      out->reserve(count);
      for (size_t i = 0; i < count; ++i) {
        uint64_t u = 0;
        RETURN_NOT_OK(in->GetFixed64(&u));
        double v;
        std::memcpy(&v, &u, sizeof(v));
        out->push_back(v);
      }
      return Status::OK();
    }
    case Encoding::kGorilla:
      return DecodeGorillaF64(in, count, out);
    case Encoding::kTs2Diff:
    case Encoding::kRle:
    case Encoding::kSimple8b:
      return Status::NotSupported("integer encoding applied to doubles");
  }
  return Status::InvalidArgument("unknown encoding");
}

}  // namespace backsort
