#ifndef BACKSORT_COMMON_CRC32_H_
#define BACKSORT_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace backsort {

/// CRC-32 (IEEE 802.3 polynomial, reflected), used to frame WAL records so
/// torn or corrupted tail records are detected during recovery. Buffers of
/// 64 bytes or more fold their 16-byte-multiple bulk with carry-less
/// multiplies where the CPU has PCLMULQDQ and SSE4.1 (checked at run
/// time); the rest goes through slicing-by-16 tables. Values are the same
/// either way.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

namespace crc32_internal {

/// The table-only path, for differential tests against the folded one.
uint32_t Crc32Table(const void* data, size_t n, uint32_t seed = 0);

/// Whether Crc32 takes the carry-less-multiply path on this CPU.
bool Crc32FoldAvailable();

}  // namespace crc32_internal

}  // namespace backsort

#endif  // BACKSORT_COMMON_CRC32_H_
