#include "common/crc32.h"

#include <cstring>

#include "common/types.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define BACKSORT_CRC32_FOLD 1
#endif

namespace backsort {

namespace {

// Slicing-by-16 CRC-32 (polynomial 0xedb88320, the zlib/WAL CRC):
// entries[0] is the classic byte-at-a-time table; entries[k][b] carries
// a CRC whose current low byte is `b` across k further zero bytes, so
// one step folds sixteen input bytes with sixteen independent table
// lookups instead of a serial chain of sixteen dependent ones. Same
// polynomial, same values, several times the throughput — this sits on
// the WAL append path and on both sides of every network frame. The
// 32-bit loads read input bytes out of the low byte first, which is only
// the stream order on little-endian hosts; big-endian builds take the
// byte-at-a-time loop (the kHostIsLittleEndian gate of common/types.h),
// keeping Crc32 value-identical across hosts.
struct Crc32Tables {
  uint32_t entries[16][256];

  constexpr Crc32Tables() : entries() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      entries[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = entries[0][i];
      for (int t = 1; t < 16; ++t) {
        c = entries[0][c & 0xffu] ^ (c >> 8);
        entries[t][i] = c;
      }
    }
  }
};

constexpr Crc32Tables kTables;

/// Advances the pre-inverted CRC register `c` over `n` bytes with tables.
uint32_t TableUpdate(uint32_t c, const uint8_t* p, size_t n) {
  while (kHostIsLittleEndian && n >= 16) {
    uint32_t w0;
    uint32_t w1;
    uint32_t w2;
    uint32_t w3;
    std::memcpy(&w0, p, 4);
    std::memcpy(&w1, p + 4, 4);
    std::memcpy(&w2, p + 8, 4);
    std::memcpy(&w3, p + 12, 4);
    w0 ^= c;
    c = kTables.entries[15][w0 & 0xffu] ^
        kTables.entries[14][(w0 >> 8) & 0xffu] ^
        kTables.entries[13][(w0 >> 16) & 0xffu] ^
        kTables.entries[12][w0 >> 24] ^
        kTables.entries[11][w1 & 0xffu] ^
        kTables.entries[10][(w1 >> 8) & 0xffu] ^
        kTables.entries[9][(w1 >> 16) & 0xffu] ^
        kTables.entries[8][w1 >> 24] ^
        kTables.entries[7][w2 & 0xffu] ^
        kTables.entries[6][(w2 >> 8) & 0xffu] ^
        kTables.entries[5][(w2 >> 16) & 0xffu] ^
        kTables.entries[4][w2 >> 24] ^
        kTables.entries[3][w3 & 0xffu] ^
        kTables.entries[2][(w3 >> 8) & 0xffu] ^
        kTables.entries[1][(w3 >> 16) & 0xffu] ^
        kTables.entries[0][w3 >> 24];
    p += 16;
    n -= 16;
  }
  while (n-- > 0) {
    c = kTables.entries[0][(c ^ *p++) & 0xffu] ^ (c >> 8);
  }
  return c;
}

#ifdef BACKSORT_CRC32_FOLD

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ", Intel 2009), with the paper's
// bit-reflected constants for 0xedb88320. Four 128-bit lanes fold 64
// bytes per step (R1, R2: a 512-bit fold distance); the lanes then fold
// into one, as do the remaining 16-byte blocks (R3, R4: a 128-bit
// distance); R4 and R5 reduce 128 bits to 64 and 64 to 32, and a Barrett
// step with the polynomial P' and mu = floor(x^64 / P) leaves the 32-bit
// register. Same polynomial as the tables, so the values are identical.
constexpr uint64_t kR1 = 0x154442bd4;
constexpr uint64_t kR2 = 0x1c6e41596;
constexpr uint64_t kR3 = 0x1751997d0;
constexpr uint64_t kR4 = 0x0ccaa009e;
constexpr uint64_t kR5 = 0x163cd6124;
constexpr uint64_t kPoly = 0x1db710641;
constexpr uint64_t kMu = 0x1f7011641;

__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(
    __m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i Load(
    const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Advances the register over `n` bytes; n >= 64 and a multiple of 16.
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldUpdate(
    uint32_t c, const uint8_t* p, size_t n) {
  __m128i x0 = _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = Load(p + 16);
  __m128i x2 = Load(p + 32);
  __m128i x3 = Load(p + 48);
  p += 64;
  n -= 64;
  const __m128i k12 = _mm_set_epi64x(kR2, kR1);
  while (n >= 64) {
    x0 = Fold(x0, k12, Load(p));
    x1 = Fold(x1, k12, Load(p + 16));
    x2 = Fold(x2, k12, Load(p + 32));
    x3 = Fold(x3, k12, Load(p + 48));
    p += 64;
    n -= 64;
  }
  const __m128i k34 = _mm_set_epi64x(kR4, kR3);
  x0 = Fold(x0, k34, x1);
  x0 = Fold(x0, k34, x2);
  x0 = Fold(x0, k34, x3);
  while (n >= 16) {
    x0 = Fold(x0, k34, Load(p));
    p += 16;
    n -= 16;
  }
  // 128 -> 64 bits: low half times R4, xored into the high half.
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k34, 0x10),
                     _mm_srli_si128(x0, 8));
  // 64 -> 32 bits: low 32 bits times R5, xored into the rest.
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  x0 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x0, mask32),
                           _mm_set_epi64x(0, kR5), 0x00),
      _mm_srli_si128(x0, 4));
  // Barrett reduction to the 32-bit register.
  const __m128i poly_mu = _mm_set_epi64x(kMu, kPoly);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

bool DetectFold() {
  __builtin_cpu_init();  // may run before libgcc's own initializer
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

// Zero (table path) if a static initializer elsewhere calls Crc32 first.
const bool kHaveFold = DetectFold();

#endif  // BACKSORT_CRC32_FOLD

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xffffffffu;
#ifdef BACKSORT_CRC32_FOLD
  if (n >= 64 && kHaveFold) {
    const size_t bulk = n & ~size_t{15};
    c = FoldUpdate(c, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  return TableUpdate(c, p, n) ^ 0xffffffffu;
}

namespace crc32_internal {

uint32_t Crc32Table(const void* data, size_t n, uint32_t seed) {
  return TableUpdate(seed ^ 0xffffffffu, static_cast<const uint8_t*>(data),
                     n) ^
         0xffffffffu;
}

bool Crc32FoldAvailable() {
#ifdef BACKSORT_CRC32_FOLD
  return kHaveFold;
#else
  return false;
#endif
}

}  // namespace crc32_internal

}  // namespace backsort
