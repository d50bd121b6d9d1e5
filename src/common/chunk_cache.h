#ifndef BACKSORT_COMMON_CHUNK_CACHE_H_
#define BACKSORT_COMMON_CHUNK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/chunk_locator.h"

namespace backsort {

/// Point-in-time cache counters, shipped through EngineMetricsSnapshot
/// into the Prometheus exposition (docs/METRICS.md).
struct ChunkCacheStats {
  uint64_t hits = 0;           ///< page-directory lookups served from cache
  uint64_t misses = 0;         ///< page-directory lookups that read the chunk
  uint64_t evictions = 0;      ///< entries evicted to stay under capacity
  uint64_t footer_hits = 0;    ///< footer/index lookups served from cache
  uint64_t footer_misses = 0;  ///< footer/index lookups that read the file
  uint64_t bytes = 0;          ///< resident bytes (directories + footers)
  uint64_t entries = 0;        ///< resident entries (directories + footers)
  uint64_t capacity_bytes = 0; ///< configured capacity (0 = disabled)
};

/// Sharded byte-bounded LRU cache of read-path metadata, shared by every
/// engine shard: page directories keyed by (file, sensor) and parsed
/// footers keyed by file. It holds no decoded points — a query decodes
/// only the pages its range overlaps, straight from the file. Entries are
/// immutable values held by shared_ptr, so a hit costs one mutex hop + one
/// refcount and evicted entries stay valid for readers still holding them.
/// Entries are sharded by their own key, so one large file spreads over
/// all shards instead of one 1/16 slice. Each shard also indexes its
/// entries by file, so InvalidateFile touches only that file's entries
/// (plus one lookup per shard), not the whole cache. Capacity 0 disables the cache: lookups miss without counting
/// and inserts are dropped.
class ChunkCache {
 public:
  explicit ChunkCache(size_t capacity_bytes);

  ChunkCache(const ChunkCache&) = delete;
  ChunkCache& operator=(const ChunkCache&) = delete;

  bool enabled() const { return capacity_ > 0; }
  size_t capacity_bytes() const { return capacity_; }

  /// Looks up the page directory of `sensor`'s chunk in `file`; counts a
  /// hit or a miss. nullptr on miss (and always when disabled).
  std::shared_ptr<const PageDirectory> GetDirectory(const std::string& file,
                                                    const std::string& sensor);

  /// Inserts (or replaces) a page directory, evicting LRU entries until
  /// the owning cache shard fits its capacity slice again.
  void PutDirectory(const std::string& file, const std::string& sensor,
                    std::shared_ptr<const PageDirectory> directory);

  /// Footer/index cache: the flattened chunk directory of one file
  /// (FooterIndex), so a page read seeks straight to the chunk instead of
  /// re-reading the index block. The same shared instance is typically
  /// also held by the file registry — one copy per file engine-wide.
  std::shared_ptr<const FooterIndex> GetFooter(const std::string& file);
  void PutFooter(const std::string& file,
                 std::shared_ptr<const FooterIndex> footer);

  /// Drops every entry (directories and footer) of `file`. Called when
  /// compaction retires the file, so no query can hit stale data through a
  /// recycled path. Not counted as evictions.
  void InvalidateFile(const std::string& file);

  ChunkCacheStats GetStats() const;

 private:
  struct Entry;
  using EntryIt = std::list<Entry>::iterator;
  struct Entry {
    std::string key;
    std::string file;
    std::shared_ptr<const void> value;
    size_t bytes = 0;
    size_t file_slot = 0;  // position in the shard's `files[file]`
  };
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::string, EntryIt> map;
    std::unordered_map<std::string, std::vector<EntryIt>> files;
    size_t bytes = 0;
  };

  static constexpr size_t kShardCount = 16;

  Shard& ShardFor(const std::string& key);
  /// Unlinks `it` from every index of `shard`; caller holds `shard.mu`.
  static void EraseLocked(Shard& shard, EntryIt it);
  /// Inserts under the shard lock, evicting from the LRU tail while the
  /// shard exceeds its capacity slice (the newest entry is never evicted,
  /// so an oversized entry still serves repeats until displaced). No-op
  /// when disabled or `value` is null.
  void Insert(const std::string& file, std::string key,
              std::shared_ptr<const void> value, size_t bytes);
  /// Finds `key` (marking it most recently used) and counts the outcome in
  /// `hits` or `misses`; nullptr on a miss or when disabled.
  std::shared_ptr<const void> Lookup(const std::string& key,
                                     std::atomic<uint64_t>* hits,
                                     std::atomic<uint64_t>* misses);

  const size_t capacity_;
  const size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> footer_hits_{0};
  std::atomic<uint64_t> footer_misses_{0};
};

}  // namespace backsort

#endif  // BACKSORT_COMMON_CHUNK_CACHE_H_
