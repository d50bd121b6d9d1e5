#ifndef BACKSORT_COMMON_CHUNK_LOCATOR_H_
#define BACKSORT_COMMON_CHUNK_LOCATOR_H_

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace backsort {

/// Where one sensor's chunk lives inside a sealed TsFile, plus the
/// per-sensor statistics the read path prunes on. Produced by the TsFile
/// writer at seal time, re-parsed from the file footer on recovery, and
/// cached (as part of a FooterMap) in the ChunkCache so repeated queries
/// never re-read the index block. Lives in common/ because both the file
/// format layer (src/tsfile/) and the cache layer depend on it.
struct ChunkLocator {
  /// Byte offset of the chunk from the start of the file.
  uint64_t offset = 0;
  /// Byte length of the chunk (up to the next chunk or the index block).
  uint64_t length = 0;
  /// Points stored in the chunk.
  uint64_t points = 0;
  /// Smallest timestamp in the chunk; min_t > max_t encodes "empty".
  Timestamp min_t = 0;
  /// Largest timestamp in the chunk.
  Timestamp max_t = -1;
  /// On-disk DataType byte (kept raw so common/ needs no tsfile types).
  uint8_t raw_type = 0;

  /// True when the footer carried value statistics (BSTF2 files). Stat-less
  /// BSTF1 files leave this false and the read path falls back to decode.
  bool has_stats = false;
  /// Smallest / largest / summed non-NaN value in the chunk. NaN points are
  /// excluded from these three but still counted in `points`; an all-NaN
  /// chunk stores min_v=+inf, max_v=-inf, sum_v=0.
  double min_v = 0;
  double max_v = 0;
  double sum_v = 0;
  /// Raw first/last values in time order (may be NaN).
  double first_v = 0;
  double last_v = 0;

  /// Whether the stored value stats can answer min/max/sum without decode.
  /// NaN-poisoned stats (possible only in hand-crafted files; the writer
  /// never emits them) force the decode path for safety.
  bool stats_usable() const {
    return has_stats && !std::isnan(min_v) && !std::isnan(max_v) &&
           !std::isnan(sum_v);
  }
};

/// One page of a sealed chunk, as its header describes it: where the page
/// sits in the chunk, its point count, time range and value statistics
/// (NaN excluded, like the footer's), and the sizes of its two encoded
/// buffers. Times are non-decreasing from page to page, so a time range
/// maps to a contiguous page span by binary search.
struct PageEntry {
  /// Byte offset of the page header from the start of the chunk.
  uint64_t offset = 0;
  /// Offsets of the encoded time / value buffers from the start of the
  /// chunk, as the header walk found them (past each buffer's varint size).
  uint64_t time_offset = 0;
  uint64_t value_offset = 0;
  /// Bytes from the page header through the end of the value buffer.
  uint32_t length = 0;
  uint32_t points = 0;
  /// Encoded time / value buffer sizes.
  uint32_t time_size = 0;
  uint32_t value_size = 0;
  Timestamp min_t = 0;
  Timestamp max_t = 0;
  double min_v = 0;
  double max_v = 0;
  double sum_v = 0;

  /// NaN page stats (only in hand-crafted files) force a decode.
  bool stats_usable() const {
    return !std::isnan(min_v) && !std::isnan(max_v) && !std::isnan(sum_v);
  }
};

/// Every page of one (file, sensor) chunk plus the chunk's encodings: the
/// read path's only cached per-chunk entry. Derived once from the chunk
/// bytes (no format change), it lets a query read and decode just the
/// pages that overlap its range. Encodings are kept raw, like
/// ChunkLocator::raw_type, so common/ needs no encoding types.
struct PageDirectory {
  uint8_t time_encoding = 0;
  uint8_t value_encoding = 0;
  std::vector<PageEntry> pages;

  /// Heap footprint charged against the cache capacity.
  size_t MemoryBytes() const {
    return sizeof(PageDirectory) + pages.capacity() * sizeof(PageEntry);
  }
};

/// One file's footer: sensor id -> chunk locator. The tree form is
/// transient — the TsFile footer parser builds it sensor by sensor — and is
/// flattened into a FooterIndex before any long-lived holder (the chunk
/// cache) keeps it.
using FooterMap = std::map<std::string, ChunkLocator>;

/// Seal-time footer entries in sorted (sensor-name) order: what the TsFile
/// writer accumulates while appending chunks. A flat vector instead of a
/// FooterMap so sealing 100k sensors costs two large allocations instead
/// of 100k red-black-tree nodes the allocator then retains.
using FooterEntries = std::vector<std::pair<std::string, ChunkLocator>>;

/// Flat, immutable image of one file's footer: the (sorted) sensor names
/// concatenated into one blob with n+1 offsets, parallel to a dense
/// locator vector. At high cardinality this replaces one red-black-tree
/// node + one heap string per sensor per copy with three allocations
/// total, and the registry and the chunk cache share a single instance by
/// shared_ptr instead of each holding a deep std::map copy — the dominant
/// post-flush resident cost at 1M sensors. Lookup is binary search over
/// the name blob; it never changes what the footer *contains*, only how it
/// is stored in memory (file bytes are untouched).
class FooterIndex {
 public:
  FooterIndex() { offsets_.push_back(0); }

  /// Flattens a parsed footer. Map iteration order is lexicographic, which
  /// Find's binary search relies on.
  explicit FooterIndex(const FooterMap& map) {
    size_t name_bytes = 0;
    for (const auto& [name, locator] : map) name_bytes += name.size();
    names_.reserve(name_bytes);
    offsets_.reserve(map.size() + 1);
    locators_.reserve(map.size());
    offsets_.push_back(0);
    for (const auto& [name, locator] : map) {
      names_.append(name);
      offsets_.push_back(static_cast<uint32_t>(names_.size()));
      locators_.push_back(locator);
    }
  }

  /// Flattens seal-time footer entries. `entries` must already be sorted
  /// by name (TsFileWriter::Finish sorts); Find's binary search relies on
  /// it.
  explicit FooterIndex(const FooterEntries& entries) {
    size_t name_bytes = 0;
    for (const auto& [name, locator] : entries) name_bytes += name.size();
    names_.reserve(name_bytes);
    offsets_.reserve(entries.size() + 1);
    locators_.reserve(entries.size());
    offsets_.push_back(0);
    for (const auto& [name, locator] : entries) {
      names_.append(name);
      offsets_.push_back(static_cast<uint32_t>(names_.size()));
      locators_.push_back(locator);
    }
  }

  size_t size() const { return locators_.size(); }
  bool empty() const { return locators_.empty(); }

  /// Name of the i-th sensor (ascending order); view into this index.
  std::string_view NameAt(size_t i) const {
    return std::string_view(names_.data() + offsets_[i],
                            offsets_[i + 1] - offsets_[i]);
  }
  const ChunkLocator& LocatorAt(size_t i) const { return locators_[i]; }

  /// Locator of `sensor`'s chunk, or nullptr when the file has none.
  const ChunkLocator* Find(std::string_view sensor) const {
    size_t lo = 0;
    size_t hi = locators_.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (NameAt(mid) < sensor) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == locators_.size() || NameAt(lo) != sensor) return nullptr;
    return &locators_[lo];
  }

  /// Exact heap footprint (for cache charging and memory sizing).
  size_t MemoryBytes() const {
    return names_.capacity() + offsets_.capacity() * sizeof(uint32_t) +
           locators_.capacity() * sizeof(ChunkLocator);
  }

 private:
  std::string names_;
  std::vector<uint32_t> offsets_;
  std::vector<ChunkLocator> locators_;
};

}  // namespace backsort

#endif  // BACKSORT_COMMON_CHUNK_LOCATOR_H_
