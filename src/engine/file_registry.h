#ifndef BACKSORT_ENGINE_FILE_REGISTRY_H_
#define BACKSORT_ENGINE_FILE_REGISTRY_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>

#include "common/chunk_cache.h"
#include "common/chunk_locator.h"
#include "common/status.h"
#include "common/types.h"
#include "tsfile/tsfile.h"

namespace backsort {

/// Immutable metadata of one sealed TsFile: its path, whether it is an
/// unsequence file, and an O(1) file-level summary (time span covered,
/// sensor count) distilled from the footer at seal or recovery time.
/// Queries snapshot a vector of refs under the shard lock and then
/// prune/read entirely outside it.
///
/// The per-sensor footer (FooterIndex) is deliberately NOT pinned here
/// when a chunk cache exists: at 1M sensors a pinned footer costs ~100
/// bytes per sensor per file forever, which dominated idle RSS. Instead
/// the constructor warms the cache's footer entry and `Footer()` fetches
/// it back on demand — evicted footers are re-parsed from the file tail
/// (one small read), so resident metadata is bounded by the cache budget,
/// not by cardinality. With the cache disabled the footer is pinned,
/// preserving the zero-I/O pre-cache pruning path bit for bit.
///
/// No fd is held between reads: each OpenChunk opens the file for the
/// one PageReader it returns, so open descriptors are bounded by reads in
/// flight, not by the number of sealed files (compaction may be off).
///
/// Lifetime doubles as deferred deletion: compaction retires a file by
/// calling MarkObsolete() and dropping its registry refs. The last reader
/// holding a ref keeps the file on disk; when that ref dies the destructor
/// invalidates the file's cache entries and unlinks the file. File
/// ids are never reused (the engine's file counter is monotonic), so a
/// stale cache entry for a retired path can never alias a new file.
class SealedFileMeta {
 public:
  /// `ranges` is the flattened footer. Must not be null — pass an empty
  /// index for a file with no chunks. When `cache` is non-null and
  /// enabled, the footer is published as the file's cache entry (one copy
  /// engine-wide) and only the span summary stays pinned; otherwise the
  /// index is pinned for the file's lifetime. `cache` is also used for
  /// invalidation at retirement.
  SealedFileMeta(std::string path, std::shared_ptr<const FooterIndex> ranges,
                 ChunkCache* cache);
  ~SealedFileMeta();

  SealedFileMeta(const SealedFileMeta&) = delete;
  SealedFileMeta& operator=(const SealedFileMeta&) = delete;

  const std::string& path() const { return path_; }
  /// True for out-of-order flush output ("unseq-*.bstf").
  bool unsequence() const { return unsequence_; }

  /// Smallest/largest timestamp over the file's non-empty chunks;
  /// span_min_t() > span_max_t() means the file holds no points.
  Timestamp span_min_t() const { return span_min_t_; }
  Timestamp span_max_t() const { return span_max_t_; }
  /// Chunks (== sensors) in the file's footer.
  size_t sensor_count() const { return sensor_count_; }

  /// True iff the file's covered time span intersects [t_min, t_max] —
  /// the O(1) first-level pruning predicate. A file that passes may still
  /// have nothing for a particular sensor; per-sensor pruning consults
  /// Footer().
  bool SpanOverlaps(Timestamp t_min, Timestamp t_max) const {
    return span_min_t_ <= span_max_t_ && span_max_t_ >= t_min &&
           span_min_t_ <= t_max;
  }

  /// The file's per-sensor footer: the pinned copy when the cache is
  /// disabled, else the cache entry — re-parsed from the file tail (and
  /// re-inserted) if it was evicted. Thread-safe; fails only on I/O
  /// errors reading the footer back.
  Status Footer(std::shared_ptr<const FooterIndex>* out) const;

  /// A page reader over `sensor`'s chunk (`locator`, from Footer()): a
  /// fresh read-only fd of the file, owned by the reader, plus the chunk's
  /// page directory — the cache entry, or derived from the chunk bytes on
  /// a miss (and cached; the reader's bytes_read() then starts at
  /// `locator.length`). The caller must hold a ref to this file for as
  /// long as it uses the reader. Thread-safe.
  Status OpenChunk(const std::string& sensor, const ChunkLocator& locator,
                   std::optional<PageReader>* out) const;

  /// Flags the file for deletion once the last ref drops. Called by
  /// compaction after the replacement file is published.
  void MarkObsolete() { obsolete_.store(true, std::memory_order_release); }
  bool obsolete() const { return obsolete_.load(std::memory_order_acquire); }

 private:
  std::string path_;
  std::shared_ptr<const FooterIndex> pinned_;  // only when cache disabled
  ChunkCache* cache_;
  Timestamp span_min_t_ = 0;
  Timestamp span_max_t_ = -1;  // empty sentinel, like ChunkLocator
  size_t sensor_count_ = 0;
  bool unsequence_;
  std::atomic<bool> obsolete_{false};
};

/// Shared handle to a sealed file's metadata. Copied into query snapshots;
/// the engine's registries (per-shard sealed list + engine-wide file list)
/// hold the long-lived refs.
using SealedFileRef = std::shared_ptr<SealedFileMeta>;

}  // namespace backsort

#endif  // BACKSORT_ENGINE_FILE_REGISTRY_H_
