#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "encoding/bitio.h"
#include "encoding/bytes.h"
#include "encoding/encoding.h"

namespace backsort {
namespace {

// --- ByteBuffer / ByteReader -------------------------------------------------

TEST(Bytes, FixedRoundTrip) {
  ByteBuffer buf;
  buf.PutFixed32(0xdeadbeef);
  buf.PutFixed64(0x0123456789abcdefULL);
  ByteReader r(buf.data());
  uint32_t a = 0;
  uint64_t b = 0;
  ASSERT_TRUE(r.GetFixed32(&a).ok());
  ASSERT_TRUE(r.GetFixed64(&b).ok());
  EXPECT_EQ(a, 0xdeadbeefu);
  EXPECT_EQ(b, 0x0123456789abcdefULL);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Bytes, VarintRoundTrip) {
  ByteBuffer buf;
  const uint64_t values[] = {0, 1, 127, 128, 300, 1u << 20,
                             std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : values) buf.PutVarint64(v);
  ByteReader r(buf.data());
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(r.GetVarint64(&got).ok());
    EXPECT_EQ(got, v);
  }
}

TEST(Bytes, SignedVarintRoundTrip) {
  ByteBuffer buf;
  const int64_t values[] = {0, -1, 1, -64, 64, -1000000, 1000000,
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  for (int64_t v : values) buf.PutVarintSigned64(v);
  ByteReader r(buf.data());
  for (int64_t v : values) {
    int64_t got = 0;
    ASSERT_TRUE(r.GetVarintSigned64(&got).ok());
    EXPECT_EQ(got, v);
  }
}

TEST(Bytes, TruncatedReadsFailCleanly) {
  ByteBuffer buf;
  buf.PutFixed64(42);
  ByteReader r(buf.data().data(), 3);  // cut mid-value
  uint64_t v = 0;
  EXPECT_TRUE(r.GetFixed64(&v).IsCorruption());
  // Unterminated varint (all continuation bits).
  const uint8_t junk[] = {0xff, 0xff};
  ByteReader r2(junk, sizeof(junk));
  EXPECT_TRUE(r2.GetVarint64(&v).IsCorruption());
}

TEST(Bytes, HugeDeclaredLengthsFailWithoutWrapping) {
  // A length prefix near 2^64 must not wrap the bounds check in size_t
  // arithmetic: these decoders see attacker-controlled network payloads,
  // and a wrapped check would read out of bounds or throw from assign().
  ByteBuffer buf;
  buf.PutVarint64(UINT64_MAX);  // declared string length: 2^64 - 1
  buf.PutU8('x');
  {
    ByteReader r(buf.data());
    std::string s;
    EXPECT_TRUE(r.GetLengthPrefixedString(&s).IsCorruption());
  }
  const uint8_t byte = 0;
  ByteReader r(&byte, 1);
  EXPECT_TRUE(r.Skip(SIZE_MAX).IsCorruption());
  uint8_t dst[8];
  ByteReader r2(&byte, 1);
  EXPECT_TRUE(r2.GetBytes(dst, SIZE_MAX).IsCorruption());
}

TEST(Bytes, StringRoundTrip) {
  ByteBuffer buf;
  buf.PutLengthPrefixedString("root.sg.d0.s1");
  buf.PutLengthPrefixedString("");
  ByteReader r(buf.data());
  std::string a, b;
  ASSERT_TRUE(r.GetLengthPrefixedString(&a).ok());
  ASSERT_TRUE(r.GetLengthPrefixedString(&b).ok());
  EXPECT_EQ(a, "root.sg.d0.s1");
  EXPECT_EQ(b, "");
}

// --- BitWriter / BitReader ----------------------------------------------------

TEST(BitIo, RoundTripAcrossByteBoundaries) {
  ByteBuffer buf;
  BitWriter bw(&buf);
  bw.Write(0b101, 3);
  bw.Write(0xabcd, 16);
  bw.Write(1, 1);
  bw.Write(0, 0);  // zero-width write is a no-op
  bw.Write(0x3ffffffffffffffULL, 58);
  bw.Flush();
  ByteReader r(buf.data());
  BitReader br(&r);
  EXPECT_EQ(br.Read(3), 0b101u);
  EXPECT_EQ(br.Read(16), 0xabcdu);
  EXPECT_EQ(br.Read(1), 1u);
  EXPECT_EQ(br.Read(58), 0x3ffffffffffffffULL);
  EXPECT_FALSE(br.overrun());
  ASSERT_TRUE(br.Finish().ok());
  EXPECT_TRUE(r.AtEnd());  // 78 bits -> 10 bytes, all consumed
}

TEST(BitIo, BitWidthOf) {
  EXPECT_EQ(BitWidthOf(0), 0);
  EXPECT_EQ(BitWidthOf(1), 1);
  EXPECT_EQ(BitWidthOf(2), 2);
  EXPECT_EQ(BitWidthOf(255), 8);
  EXPECT_EQ(BitWidthOf(256), 9);
  EXPECT_EQ(BitWidthOf(std::numeric_limits<uint64_t>::max()), 64);
}

// --- encodings -----------------------------------------------------------------

class I64EncodingTest : public ::testing::TestWithParam<Encoding> {};

std::vector<std::vector<int64_t>> I64Corpora() {
  Rng rng(17);
  std::vector<std::vector<int64_t>> corpora;
  corpora.push_back({});
  corpora.push_back({42});
  corpora.push_back({-5, -5, -5, -5});
  // Monotone timestamps with unit spacing (the common case).
  std::vector<int64_t> mono;
  for (int i = 0; i < 5000; ++i) mono.push_back(1'600'000'000'000 + i);
  corpora.push_back(std::move(mono));
  // Jittered spacing.
  std::vector<int64_t> jitter;
  int64_t t = 0;
  for (int i = 0; i < 3000; ++i) {
    t += static_cast<int64_t>(rng.NextBelow(100));
    jitter.push_back(t);
  }
  corpora.push_back(std::move(jitter));
  // Random, including negatives and big magnitudes.
  std::vector<int64_t> random;
  for (int i = 0; i < 2000; ++i) {
    random.push_back(static_cast<int64_t>(rng.NextU64()) >> (i % 32));
  }
  corpora.push_back(std::move(random));
  // Exactly one TS_2DIFF block boundary (128 deltas).
  std::vector<int64_t> boundary;
  for (int i = 0; i <= 128; ++i) boundary.push_back(i * 7);
  corpora.push_back(std::move(boundary));
  // RLE-friendly runs.
  std::vector<int64_t> runs;
  for (int v = 0; v < 20; ++v) {
    for (int k = 0; k < 97; ++k) runs.push_back(v * 1000);
  }
  corpora.push_back(std::move(runs));
  return corpora;
}

TEST_P(I64EncodingTest, RoundTripsAllCorpora) {
  for (const auto& corpus : I64Corpora()) {
    ByteBuffer buf;
    ASSERT_TRUE(EncodeI64(GetParam(), corpus, &buf).ok());
    ByteReader r(buf.data());
    std::vector<int64_t> decoded;
    ASSERT_TRUE(DecodeI64(GetParam(), &r, corpus.size(), &decoded).ok());
    EXPECT_EQ(decoded, corpus);
  }
}

INSTANTIATE_TEST_SUITE_P(IntEncodings, I64EncodingTest,
                         ::testing::Values(Encoding::kPlain,
                                           Encoding::kTs2Diff, Encoding::kRle),
                         [](const ::testing::TestParamInfo<Encoding>& info) {
                           return EncodingName(info.param);
                         });

TEST(Ts2Diff, CompressesMonotoneTimestamps) {
  std::vector<int64_t> ts;
  for (int i = 0; i < 100000; ++i) ts.push_back(1'600'000'000'000LL + i * 10);
  ByteBuffer plain, packed;
  EncodePlainI64(ts, &plain);
  EncodeTs2DiffI64(ts, &packed);
  // Constant deltas bit-pack to width 0: orders of magnitude smaller.
  EXPECT_LT(packed.size() * 20, plain.size());
}

TEST(Ts2Diff, TruncatedInputFails) {
  std::vector<int64_t> ts;
  for (int i = 0; i < 1000; ++i) ts.push_back(i * i);
  ByteBuffer buf;
  EncodeTs2DiffI64(ts, &buf);
  ByteReader r(buf.data().data(), buf.size() / 2);
  std::vector<int64_t> decoded;
  EXPECT_FALSE(DecodeTs2DiffI64(&r, ts.size(), &decoded).ok());
}

TEST(Rle, RejectsOverflowingRun) {
  ByteBuffer buf;
  buf.PutVarintSigned64(7);
  buf.PutVarint64(1000);  // run longer than the declared point count
  ByteReader r(buf.data());
  std::vector<int64_t> decoded;
  EXPECT_TRUE(DecodeRleI64(&r, 10, &decoded).IsCorruption());
}

TEST(Simple8b, PacksSmallValuesDensely) {
  // 240 zeros -> one word (selector 0): 8 bytes.
  std::vector<uint64_t> zeros(240, 0);
  ByteBuffer buf;
  ASSERT_TRUE(EncodeSimple8bU64(zeros, &buf).ok());
  EXPECT_EQ(buf.size(), 8u);
  ByteReader r(buf.data());
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(DecodeSimple8bU64(&r, zeros.size(), &decoded).ok());
  EXPECT_EQ(decoded, zeros);
}

TEST(Simple8b, RoundTripsMixedMagnitudes) {
  Rng rng(7);
  std::vector<uint64_t> corpus;
  for (int i = 0; i < 10000; ++i) {
    // Shift by 4..63 bits: magnitudes from 2^60-1 down to 0.
    corpus.push_back(rng.NextU64() >> (4 + rng.NextBelow(60)));
  }
  ByteBuffer buf;
  ASSERT_TRUE(EncodeSimple8bU64(corpus, &buf).ok());
  ByteReader r(buf.data());
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(DecodeSimple8bU64(&r, corpus.size(), &decoded).ok());
  EXPECT_EQ(decoded, corpus);
}

TEST(Simple8b, RejectsOversizedValues) {
  ByteBuffer buf;
  EXPECT_TRUE(
      EncodeSimple8bU64({uint64_t{1} << 60}, &buf).IsOutOfRange());
}

TEST(Simple8b, PartialTailWord) {
  std::vector<uint64_t> corpus = {1, 2, 3};  // far less than any word count
  ByteBuffer buf;
  ASSERT_TRUE(EncodeSimple8bU64(corpus, &buf).ok());
  ByteReader r(buf.data());
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(DecodeSimple8bU64(&r, corpus.size(), &decoded).ok());
  EXPECT_EQ(decoded, corpus);
}

TEST(Simple8b, DeltaTimestampsCompressAndRoundTrip) {
  std::vector<int64_t> ts;
  for (int i = 0; i < 100000; ++i) ts.push_back(1'600'000'000'000LL + i * 10);
  ByteBuffer plain, packed;
  EncodePlainI64(ts, &plain);
  ASSERT_TRUE(EncodeSimple8bDeltaI64(ts, &packed).ok());
  EXPECT_LT(packed.size() * 10, plain.size());
  ByteReader r(packed.data());
  std::vector<int64_t> decoded;
  ASSERT_TRUE(DecodeSimple8bDeltaI64(&r, ts.size(), &decoded).ok());
  EXPECT_EQ(decoded, ts);
}

TEST(Simple8b, DeltaHandlesNegativeJumps) {
  const std::vector<int64_t> ts = {100, 50, 200, -1000, 5, 5, 5};
  ByteBuffer buf;
  ASSERT_TRUE(EncodeSimple8bDeltaI64(ts, &buf).ok());
  ByteReader r(buf.data());
  std::vector<int64_t> decoded;
  ASSERT_TRUE(DecodeSimple8bDeltaI64(&r, ts.size(), &decoded).ok());
  EXPECT_EQ(decoded, ts);
}

TEST(Simple8b, DispatchRoundTrip) {
  std::vector<int64_t> ts;
  for (int i = 0; i < 5000; ++i) ts.push_back(i * 3 + (i % 7));
  ByteBuffer buf;
  ASSERT_TRUE(EncodeI64(Encoding::kSimple8b, ts, &buf).ok());
  ByteReader r(buf.data());
  std::vector<int64_t> decoded;
  ASSERT_TRUE(DecodeI64(Encoding::kSimple8b, &r, ts.size(), &decoded).ok());
  EXPECT_EQ(decoded, ts);
}

TEST(Gorilla, RoundTripsDoubleCorpora) {
  Rng rng(23);
  std::vector<std::vector<double>> corpora;
  corpora.push_back({});
  corpora.push_back({3.14159});
  corpora.push_back({0.0, 0.0, 0.0});
  corpora.push_back({1.0, -1.0, std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(), 1e-300,
                     1e300});
  std::vector<double> sensor;
  double v = 20.0;
  for (int i = 0; i < 10000; ++i) {
    v += 0.01 * rng.NextGaussian();
    sensor.push_back(v);
  }
  corpora.push_back(std::move(sensor));
  std::vector<double> steps;
  for (int i = 0; i < 5000; ++i) steps.push_back((i / 100) * 0.5);
  corpora.push_back(std::move(steps));

  for (const auto& corpus : corpora) {
    ByteBuffer buf;
    EncodeGorillaF64(corpus, &buf);
    ByteReader r(buf.data());
    std::vector<double> decoded;
    ASSERT_TRUE(DecodeGorillaF64(&r, corpus.size(), &decoded).ok());
    ASSERT_EQ(decoded.size(), corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(decoded[i], corpus[i]) << i;  // bit-exact
    }
  }
}

TEST(Gorilla, NanRoundTripsBitExact) {
  const std::vector<double> corpus = {1.0,
                                      std::numeric_limits<double>::quiet_NaN(),
                                      2.0};
  ByteBuffer buf;
  EncodeGorillaF64(corpus, &buf);
  ByteReader r(buf.data());
  std::vector<double> decoded;
  ASSERT_TRUE(DecodeGorillaF64(&r, corpus.size(), &decoded).ok());
  EXPECT_TRUE(std::isnan(decoded[1]));
}

TEST(Gorilla, SlowlyChangingSensorCompresses) {
  std::vector<double> sensor;
  for (int i = 0; i < 50000; ++i) sensor.push_back(25.0);  // constant
  ByteBuffer plain, packed;
  ASSERT_TRUE(EncodeF64(Encoding::kPlain, sensor, &plain).ok());
  ASSERT_TRUE(EncodeF64(Encoding::kGorilla, sensor, &packed).ok());
  EXPECT_LT(packed.size() * 30, plain.size());
}

// --- differential: word-at-a-time bit I/O vs a byte-at-a-time reference -----

// The byte-at-a-time bit reader and writer, and the TS_2DIFF / Gorilla
// decoders built on them, as they stood before the word-at-a-time
// rewrite. They define the contract: same status class, and on success
// the same values and the same ByteReader position.
namespace reference {

class BitWriter {
 public:
  explicit BitWriter(ByteBuffer* out) : out_(out) {}
  void WriteBits(uint64_t value, int bits) {
    for (int i = bits - 1; i >= 0; --i) {
      current_ = static_cast<uint8_t>((current_ << 1) | ((value >> i) & 1));
      if (++filled_ == 8) {
        out_->PutU8(current_);
        current_ = 0;
        filled_ = 0;
      }
    }
  }
  void Flush() {
    if (filled_ > 0) {
      out_->PutU8(static_cast<uint8_t>(current_ << (8 - filled_)));
      current_ = 0;
      filled_ = 0;
    }
  }

 private:
  ByteBuffer* out_;
  uint8_t current_ = 0;
  int filled_ = 0;
};

class BitReader {
 public:
  explicit BitReader(ByteReader* in) : in_(in) {}
  Status ReadBits(int bits, uint64_t* out) {
    uint64_t v = 0;
    for (int i = 0; i < bits; ++i) {
      if (filled_ == 0) {
        RETURN_NOT_OK(in_->GetU8(&current_));
        filled_ = 8;
      }
      --filled_;
      v = (v << 1) | ((current_ >> filled_) & 1);
    }
    *out = v;
    return Status::OK();
  }

 private:
  ByteReader* in_;
  uint8_t current_ = 0;
  int filled_ = 0;
};

Status DecodeTs2Diff(ByteReader* in, size_t count, std::vector<int64_t>* out) {
  out->clear();
  if (count == 0) return Status::OK();
  int64_t first = 0;
  RETURN_NOT_OK(in->GetVarintSigned64(&first));
  out->push_back(first);
  uint64_t prev = static_cast<uint64_t>(first);
  while (out->size() < count) {
    const size_t block_n = std::min<size_t>(128, count - out->size());
    int64_t min_delta = 0;
    RETURN_NOT_OK(in->GetVarintSigned64(&min_delta));
    uint8_t width = 0;
    RETURN_NOT_OK(in->GetU8(&width));
    if (width > 64) return Status::Corruption("ts2diff bit width > 64");
    BitReader br(in);
    for (size_t i = 0; i < block_n; ++i) {
      uint64_t adj = 0;
      RETURN_NOT_OK(br.ReadBits(width, &adj));
      prev += adj + static_cast<uint64_t>(min_delta);
      out->push_back(static_cast<int64_t>(prev));
    }
  }
  return Status::OK();
}

Status DecodeGorilla(ByteReader* in, size_t count, std::vector<double>* out) {
  out->clear();
  if (count == 0) return Status::OK();
  uint64_t prev = 0;
  RETURN_NOT_OK(in->GetFixed64(&prev));
  out->push_back(std::bit_cast<double>(prev));
  BitReader br(in);
  int shift = 0;  // a value changed before any window XORs in 0 bits
  int meaningful = 0;
  for (size_t i = 1; i < count; ++i) {
    uint64_t changed = 0;
    RETURN_NOT_OK(br.ReadBits(1, &changed));
    if (changed != 0) {
      uint64_t new_window = 0;
      RETURN_NOT_OK(br.ReadBits(1, &new_window));
      if (new_window != 0) {
        uint64_t lead = 0, len = 0;
        RETURN_NOT_OK(br.ReadBits(5, &lead));
        RETURN_NOT_OK(br.ReadBits(6, &len));
        const int leading = static_cast<int>(lead);
        meaningful = len == 0 ? 64 : static_cast<int>(len);
        if (leading + meaningful > 64) {
          return Status::Corruption("gorilla window exceeds 64 bits");
        }
        shift = 64 - leading - meaningful;
      }
      uint64_t bits = 0;
      RETURN_NOT_OK(br.ReadBits(meaningful, &bits));
      prev ^= bits << shift;
    }
    out->push_back(std::bit_cast<double>(prev));
  }
  return Status::OK();
}

}  // namespace reference

/// TS_2DIFF pages: regular and jittered sampling, block-sized tails, and
/// one page per bit width 0..64 (width 64 needs wrapping deltas).
std::vector<std::vector<int64_t>> Ts2DiffPages() {
  Rng rng(101);
  std::vector<std::vector<int64_t>> pages;
  std::vector<int64_t> regular, jitter;
  for (int i = 0; i < 1024; ++i) regular.push_back(1'600'000'000'000 + i * 10);
  int64_t t = 1'600'000'000'000;
  for (int i = 0; i < 1000; ++i) {
    t += 5 + static_cast<int64_t>(rng.NextBelow(40)) - 20;
    jitter.push_back(t);
  }
  pages.push_back(std::move(regular));
  pages.push_back(std::move(jitter));
  for (int width = 0; width <= 64; ++width) {
    std::vector<int64_t> page;
    uint64_t v = rng.NextU64();
    page.push_back(static_cast<int64_t>(v));
    const uint64_t mask = width == 0 ? 0 : ~uint64_t{0} >> (64 - width);
    const size_t n = 130 + rng.NextBelow(200);
    for (size_t i = 0; i < n; ++i) {
      uint64_t delta = rng.NextU64() & mask;
      if (i == 0) delta = width == 64 ? uint64_t{1} << 63 : 0;  // min
      if (i == 1) delta = width == 64 ? ~(uint64_t{1} << 63) : mask;  // max
      v += delta;
      page.push_back(static_cast<int64_t>(v));
    }
    pages.push_back(std::move(page));
  }
  return pages;
}

/// Gorilla pages: a slow sensor, repeats, NaN payloads, infinities,
/// signed zeros and a full 64-bit XOR window.
std::vector<std::vector<double>> GorillaPages() {
  Rng rng(202);
  std::vector<std::vector<double>> pages;
  std::vector<double> sensor;
  double v = 20.0;
  for (int i = 0; i < 1024; ++i) {
    if (i % 7 != 0) v += 0.01 * rng.NextGaussian();  // every 7th repeats
    sensor.push_back(v);
  }
  pages.push_back(std::move(sensor));
  std::vector<double> odd = {
      1.0,
      std::numeric_limits<double>::quiet_NaN(),
      std::bit_cast<double>(uint64_t{0x7ff0000000000001}),  // signalling
      std::bit_cast<double>(uint64_t{0xfff8000000000abc}),  // -NaN payload
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.0,
      -0.0,
      std::bit_cast<double>(uint64_t{0x8000000000000001}),  // 64-bit window
      0.0,
      std::bit_cast<double>(uint64_t{0xffffffffffffffff}),
      1e-300,
      1e300};
  pages.push_back(odd);
  std::vector<double> random;
  for (int i = 0; i < 700; ++i) {
    random.push_back(std::bit_cast<double>(rng.NextU64() >> rng.NextBelow(64)));
  }
  pages.push_back(std::move(random));
  return pages;
}

template <typename T>
std::vector<uint64_t> Bits(const std::vector<T>& v) {
  std::vector<uint64_t> out;
  for (T x : v) out.push_back(std::bit_cast<uint64_t>(x));
  return out;
}

/// Decodes `bytes` with the reference and the production decoder and
/// requires the same status class, and on OK the same values (bitwise)
/// and the same reader position.
template <typename T, typename Ref, typename Prod>
void ExpectSameDecode(const std::vector<uint8_t>& bytes, size_t len,
                      size_t count, Ref ref, Prod prod,
                      const std::string& what) {
  ByteReader r1(bytes.data(), len);
  ByteReader r2(bytes.data(), len);
  std::vector<T> want, got;
  const Status s1 = ref(&r1, count, &want);
  const Status s2 = prod(&r2, count, &got);
  ASSERT_EQ(s1.code(), s2.code())
      << what << ": reference " << s1.ToString() << ", got " << s2.ToString();
  if (!s1.ok()) return;
  ASSERT_EQ(Bits(want), Bits(got)) << what;
  ASSERT_EQ(r1.position(), r2.position()) << what;
}

/// Runs every mutation class over one encoded page: intact, count +- 1,
/// truncation at every byte, and seeded bit flips.
template <typename T, typename Ref, typename Prod>
void DiffPage(const std::vector<uint8_t>& page, size_t count, Ref ref,
              Prod prod, uint64_t seed) {
  // A trailing byte that is not part of the page: positions must agree.
  std::vector<uint8_t> bytes = page;
  bytes.push_back(0xa5);
  for (size_t c : {count, count + 1, count == 0 ? 0 : count - 1}) {
    ExpectSameDecode<T>(bytes, bytes.size(), c, ref, prod, "count");
  }
  for (size_t len = 0; len <= page.size(); ++len) {
    ExpectSameDecode<T>(bytes, len, count, ref, prod,
                        "truncated at " + std::to_string(len));
  }
  Rng rng(seed);
  for (int trial = 0; trial < 300 && !page.empty(); ++trial) {
    std::vector<uint8_t> flipped = bytes;
    const int flips = 1 + static_cast<int>(rng.NextBelow(3));
    for (int f = 0; f < flips; ++f) {
      const size_t bit = rng.NextBelow(page.size() * 8);
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    ExpectSameDecode<T>(flipped, flipped.size(), count, ref, prod,
                        "flip trial " + std::to_string(trial));
  }
}

TEST(BitIoDifferential, Ts2DiffMatchesByteAtATimeReference) {
  uint64_t seed = 1;
  for (const auto& page : Ts2DiffPages()) {
    ByteBuffer buf;
    EncodeTs2DiffI64(page, &buf);
    DiffPage<int64_t>(buf.data(), page.size(), reference::DecodeTs2Diff,
                      DecodeTs2DiffI64, seed++);
    if (HasFatalFailure()) return;
  }
}

TEST(BitIoDifferential, GorillaMatchesByteAtATimeReference) {
  uint64_t seed = 1000;
  for (const auto& page : GorillaPages()) {
    ByteBuffer buf;
    EncodeGorillaF64(page, &buf);
    DiffPage<double>(buf.data(), page.size(), reference::DecodeGorilla,
                     DecodeGorillaF64, seed++);
    if (HasFatalFailure()) return;
  }
}

TEST(BitIoDifferential, WriterIsByteIdenticalToReference) {
  Rng rng(303);
  for (int trial = 0; trial < 200; ++trial) {
    ByteBuffer want_buf, got_buf;
    reference::BitWriter want(&want_buf);
    BitWriter got(&got_buf);
    std::vector<std::pair<uint64_t, int>> writes;
    const int n = 1 + static_cast<int>(rng.NextBelow(100));
    for (int i = 0; i < n; ++i) {
      // Values carry junk above `width`: only the low bits may be written.
      const int width = static_cast<int>(rng.NextBelow(65));
      const uint64_t value = rng.NextU64();
      want.WriteBits(value, width);
      got.Write(value, width);
      writes.emplace_back(value, width);
    }
    want.Flush();
    got.Flush();
    ASSERT_EQ(want_buf.data(), got_buf.data()) << "trial " << trial;
    // And the word reader reads back what was written.
    ByteReader r(got_buf.data());
    BitReader br(&r);
    for (const auto& [value, width] : writes) {
      const uint64_t mask = width == 0 ? 0 : ~uint64_t{0} >> (64 - width);
      ASSERT_EQ(br.Read(width), value & mask) << "trial " << trial;
    }
    ASSERT_TRUE(br.Finish().ok());
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(BitIoDifferential, ReaderMatchesReferenceOnRandomBytes) {
  // Random widths over random bytes, running off the end: values agree
  // until the reference fails, and the overrun is flagged exactly then.
  Rng rng(404);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bytes(rng.NextBelow(40));
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.NextU64());
    ByteReader r1(bytes);
    ByteReader r2(bytes);
    reference::BitReader want(&r1);
    BitReader got(&r2);
    while (true) {
      const int width = static_cast<int>(rng.NextBelow(65));
      uint64_t v = 0;
      const Status st = want.ReadBits(width, &v);
      const uint64_t g = got.Read(width);
      ASSERT_EQ(st.ok(), !got.overrun()) << "trial " << trial;
      if (!st.ok()) break;
      ASSERT_EQ(v, g) << "trial " << trial << " width " << width;
    }
    EXPECT_TRUE(got.Finish().IsCorruption());
  }
}

TEST(EncodingDispatch, TypeMismatchesRejected) {
  ByteBuffer buf;
  std::vector<double> d = {1.0};
  std::vector<int64_t> i = {1};
  EXPECT_TRUE(EncodeF64(Encoding::kRle, d, &buf).IsNotSupported());
  EXPECT_TRUE(EncodeF64(Encoding::kTs2Diff, d, &buf).IsNotSupported());
  EXPECT_TRUE(EncodeI64(Encoding::kGorilla, i, &buf).IsNotSupported());
}

}  // namespace
}  // namespace backsort
