#ifndef BACKSORT_COMMON_HEAP_TRIM_H_
#define BACKSORT_COMMON_HEAP_TRIM_H_

#include <cstddef>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace backsort {

/// Returns freed heap pages to the OS after a large sealed memtable or
/// compaction job dies. The memtable's point storage is arena blocks
/// (munmapped wholesale), but the seal pipeline's per-sensor transients —
/// encoded chunk bodies, chain-pointer vectors, writer index entries —
/// land in glibc's bins, where they would stay resident forever at high
/// cardinality (~hundreds of bytes per idle sensor). A compaction job's
/// merge workers leave their output chunks and decoded pages in their own
/// threads' malloc arenas, which allocations on other threads do not
/// reuse. malloc_trim(0) madvises whole free pages of every arena away,
/// costing ~a millisecond against a multi-hundred-millisecond seal; the
/// 4 MiB floor keeps small frequent flushes (deep per-sensor backfill) off
/// that cost entirely.
inline void MaybeTrimHeap(size_t freed_bytes) {
#if defined(__GLIBC__)
  constexpr size_t kTrimFloorBytes = 4u << 20;
  if (freed_bytes >= kTrimFloorBytes) ::malloc_trim(0);
#else
  (void)freed_bytes;
#endif
}

}  // namespace backsort

#endif  // BACKSORT_COMMON_HEAP_TRIM_H_
