#ifndef BACKSORT_TSFILE_TSFILE_H_
#define BACKSORT_TSFILE_TSFILE_H_

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/chunk_locator.h"
#include "common/range_stats.h"
#include "common/status.h"
#include "common/types.h"
#include "encoding/encoding.h"

namespace backsort {

/// Value data types storable in a chunk (IoTDB's TSDataType, reduced to the
/// types exercised by the paper's workloads).
enum class DataType : uint8_t {
  kInt64 = 0,
  kDouble = 1,
};

/// A simplified TsFile: the columnar, chunk-per-sensor file IoTDB flushes
/// memtables into.
///
/// Layout (format v2, magic "BSTF2"):
///   [magic "BSTF2"]
///   [chunk 0][chunk 1]...
///   [index block: per chunk {sensor, offset, data type,
///                            point count, min_time, max_time,
///                            min_v, max_v, sum_v, first_v, last_v}]
///   [index offset : fixed64]
///   [magic "BSTF2"]
///
/// Format v1 ("BSTF1") is identical except the index entries stop after
/// max_time. The reader accepts both: v1 locators come back with
/// `has_stats == false` and aggregation falls back to decoding those
/// chunks, so stat-less seed-era files stay readable. The writer emits v2
/// unless `set_footer_stats(false)` — which reproduces v1 bit for bit.
///
/// The index block carries each chunk's point count, [min_time, max_time]
/// and (v2) value statistics, so the engine prunes whole files against a
/// query range — and answers aggregations over fully covered, unshadowed
/// chunks — from the footer alone, without decoding (or even mapping) any
/// chunk, and rebuilds its pruning metadata on recovery with a tail-only
/// read (ReadTsFileFooter).
///
/// Chunk layout:
///   sensor name (length-prefixed), data type (u8),
///   time encoding (u8), value encoding (u8), page count (varint),
///   pages: {point count varint, min_time svarint, max_time svarint,
///           value stats (min, max, sum as fixed64 double bits),
///           time buffer (varint size + bytes),
///           value buffer (varint size + bytes)}
///
/// Pages carry min/max time so time-range queries prune pages without
/// decoding them, and value statistics so aggregations over fully covered
/// pages skip decoding entirely (IoTDB's page-statistics pushdown). For
/// int64 chunks the stats are stored as doubles (exact up to 2^53).
class TsFileWriter {
 public:
  static constexpr const char kMagic[] = "BSTF1";
  static constexpr const char kMagicV2[] = "BSTF2";
  static constexpr size_t kDefaultPointsPerPage = 1024;

  explicit TsFileWriter(std::string path) : path_(std::move(path)) {}

  /// Appends a chunk for `sensor`. Timestamps must be sorted ascending
  /// (flush sorts first); returns InvalidArgument otherwise.
  Status WriteChunkI64(std::string_view sensor,
                       const std::vector<Timestamp>& ts,
                       const std::vector<int64_t>& values,
                       Encoding time_enc = Encoding::kTs2Diff,
                       Encoding value_enc = Encoding::kRle,
                       size_t points_per_page = kDefaultPointsPerPage);

  Status WriteChunkF64(std::string_view sensor,
                       const std::vector<Timestamp>& ts,
                       const std::vector<double>& values,
                       Encoding time_enc = Encoding::kTs2Diff,
                       Encoding value_enc = Encoding::kGorilla,
                       size_t points_per_page = kDefaultPointsPerPage);

  /// One chunk's serialized body plus the metadata its index entry needs —
  /// the split that lets encoding run off the writer. Chunk bodies are
  /// position-independent (the index entry records the offset at append
  /// time), so parallel flush workers encode different sensors
  /// concurrently and the coordinator appends the results in a
  /// deterministic order; the file bytes are identical to the serial
  /// WriteChunkF64 path by construction.
  struct EncodedChunk {
    ByteBuffer body;
    DataType type = DataType::kDouble;
    RangeStats stats;  // every point, folded in time order during encode
  };

  /// Encodes one F64 chunk body into `out` without touching any writer.
  /// Static and stateless — safe to call from any thread. Same validation
  /// as WriteChunkF64 (sorted timestamps, matching column sizes).
  static Status EncodeChunkF64(std::string_view sensor,
                               const std::vector<Timestamp>& ts,
                               const std::vector<double>& values,
                               Encoding time_enc, Encoding value_enc,
                               size_t points_per_page, EncodedChunk* out);

  /// Appends a chunk produced by EncodeChunkF64, recording its index
  /// entry. WriteChunkF64 == EncodeChunkF64 + AppendEncodedChunk.
  Status AppendEncodedChunk(std::string_view sensor,
                            const EncodedChunk& chunk);

  /// Streaming chunk construction, for writers that produce pages
  /// incrementally and know the page count up front (the compaction
  /// merge's counting pass): BeginChunkF64 emits the chunk header for
  /// exactly `page_count` pages, each AppendPageF64 encodes and appends
  /// one page, EndChunk validates the count and records the index entry.
  /// Page bytes are identical to WriteChunkF64 splitting the same points
  /// at the same boundaries. Cannot interleave with WriteChunk*.
  Status BeginChunkF64(std::string_view sensor, uint64_t page_count,
                       Encoding time_enc = Encoding::kTs2Diff,
                       Encoding value_enc = Encoding::kGorilla);

  /// Appends one page to the open streaming chunk. Timestamps must be
  /// sorted and must not precede the previous page's last timestamp.
  Status AppendPageF64(const std::vector<Timestamp>& ts,
                       const std::vector<double>& values);

  Status EndChunk();

  /// Selects the footer format: true (default) writes BSTF2 with per-chunk
  /// value statistics; false writes the stat-less BSTF1 format, bit for
  /// bit what the pre-statistics writer produced (the `--no-footer-stats`
  /// escape hatch and the legacy-format tests). Must be set before the
  /// first chunk is written — the head magic commits the version.
  void set_footer_stats(bool enabled) { footer_stats_ = enabled; }

  /// Bounds the in-memory build buffer: once it exceeds `bytes`, buffered
  /// content is appended to the file on disk and the buffer reset
  /// (Finish still produces the complete file — same bytes either way).
  /// 0 (the default) keeps the whole file in memory until Finish, which
  /// is the flush path's behavior. Compaction sets a small threshold so
  /// job memory stays bounded by open pages, not output size.
  void set_spill_threshold(size_t bytes) { spill_threshold_ = bytes; }

  /// Writes index + footer and flushes the file to disk.
  Status Finish();

  size_t chunk_count() const { return index_.size(); }

  /// Chunk locators of the sealed file (offset, length, point count, time
  /// range per sensor), sorted by sensor name — what ReadTsFileFooter
  /// would parse back, as flat entries rather than a tree. Valid after
  /// Finish(); the engine flattens it into a FooterIndex to warm the
  /// footer cache without re-reading the file it just wrote.
  const FooterEntries& Locators() const { return locators_; }

 private:
  struct IndexEntry {
    std::string sensor;
    uint64_t offset;
    DataType type;
    RangeStats stats;  // point count, time range and value stats
  };

  /// Head/tail magic for the configured format version.
  const char* magic() const { return footer_stats_ ? kMagicV2 : kMagic; }

  template <typename V>
  Status WriteChunkImpl(std::string_view sensor,
                        const std::vector<Timestamp>& ts,
                        const std::vector<V>& values, DataType type,
                        Encoding time_enc, Encoding value_enc,
                        size_t points_per_page);

  /// Absolute position the next appended byte lands at in the final file:
  /// bytes already spilled to disk plus the current buffer. With no spill
  /// threshold this is just buffer_.size(), so offsets match the original
  /// in-memory-only path bit for bit.
  uint64_t FileOffset() const { return spilled_bytes_ + buffer_.size(); }

  /// Appends the buffer to the on-disk file (opening it on first call)
  /// and resets the buffer.
  Status SpillBuffer();
  Status MaybeSpill();

  std::string path_;
  ByteBuffer buffer_;
  std::vector<IndexEntry> index_;
  FooterEntries locators_;  // built (sorted) by Finish()
  bool finished_ = false;
  bool footer_stats_ = true;  // false = legacy BSTF1 footer

  size_t spill_threshold_ = 0;  // 0 = never spill before Finish
  uint64_t spilled_bytes_ = 0;
  std::ofstream spill_out_;  // opened lazily by SpillBuffer

  // Streaming chunk state (BeginChunkF64 .. EndChunk).
  bool chunk_open_ = false;
  std::string chunk_sensor_;
  Encoding chunk_time_enc_ = Encoding::kTs2Diff;
  Encoding chunk_value_enc_ = Encoding::kGorilla;
  uint64_t chunk_offset_ = 0;
  uint64_t chunk_declared_pages_ = 0;
  uint64_t chunk_appended_pages_ = 0;
  RangeStats chunk_stats_;
};

/// Standalone read side for tools and tests: the file is slurped into
/// memory on Open, and all accessors are bounds-checked and return
/// Corruption on damaged input. The engine reads through PageReader
/// instead; this reader's whole-chunk decode is the independent reference
/// the read-path differential tests compare against.
class TsFileReader {
 public:
  explicit TsFileReader(std::string path) : path_(std::move(path)) {}

  Status Open();

  std::vector<std::string> Sensors() const;
  Status GetDataType(const std::string& sensor, DataType* out) const;

  /// Reads the full chunk for `sensor`.
  Status ReadChunkI64(const std::string& sensor, std::vector<Timestamp>* ts,
                      std::vector<int64_t>* values) const;
  Status ReadChunkF64(const std::string& sensor, std::vector<Timestamp>* ts,
                      std::vector<double>* values) const;

  /// Time-range scan [t_min, t_max] with page pruning via page min/max.
  Status QueryRangeF64(const std::string& sensor, Timestamp t_min,
                       Timestamp t_max, std::vector<Timestamp>* ts,
                       std::vector<double>* values) const;

  /// The range aggregate under its older name, which tools and
  /// benchmarks still use.
  using RangeStats = backsort::RangeStats;

  /// Aggregation with statistics pushdown: pages fully inside [t_min,
  /// t_max] contribute their stored count/sum/min/max without being
  /// decoded; boundary pages are decoded and filtered. `pages_skipped`
  /// (optional) reports how many pages were served from statistics.
  Status AggregateRangeF64(const std::string& sensor, Timestamp t_min,
                           Timestamp t_max, RangeStats* stats,
                           size_t* pages_skipped = nullptr) const;

  /// The parsed index block: per-sensor chunk offset/length, point count
  /// and time range — the pruning metadata the engine registers at seal
  /// and recovery time.
  const FooterMap& Locators() const { return locators_; }

 private:
  template <typename V>
  Status ReadChunkImpl(const std::string& sensor, DataType expect_type,
                       Timestamp t_min, Timestamp t_max,
                       std::vector<Timestamp>* ts,
                       std::vector<V>* values) const;

  std::string path_;
  std::vector<uint8_t> data_;
  FooterMap locators_;
};

/// Tail-only footer read: parses the index block of a sealed TsFile (the
/// last few KB of the file) into per-sensor chunk locators without
/// slurping any chunk data. This is the read path's source of pruning and
/// seek metadata when the footer is not already cached, and recovery's.
/// Checks the head magic against the tail magic, as TsFileReader::Open.
Status ReadTsFileFooter(const std::string& path, FooterMap* out);

/// Derives the page directory of `sensor`'s chunk from the chunk bytes
/// `chunk[0, size)` — no format change: BSTF1 and BSTF2 pages carry the
/// same headers. Every header is validated against the locator, so hostile
/// bytes yield Corruption, never an out-of-bounds read: type and encodings
/// must be valid, both buffers must stay inside the chunk, page counts must
/// be non-zero and sum to `locator.points`, and page times must not go
/// backwards.
Status ParsePageDirectory(const uint8_t* chunk, size_t size,
                          const std::string& sensor,
                          const ChunkLocator& locator, PageDirectory* out);

/// ParsePageDirectory of an F64 chunk through a sealed file's descriptor:
/// one pread of the chunk's `locator.length` bytes, then the header walk.
Status ReadPageDirectory(int fd, const std::string& sensor,
                         const ChunkLocator& locator, PageDirectory* out);

/// Reads one F64 chunk page by page through its PageDirectory — the
/// engine's only reader of sealed bytes (queries, compaction, recovery),
/// and TsFileReader's page-stats aggregation. A range call binary-searches
/// the directory for the pages overlapping its range, fetches their bytes
/// with one pread (or from an in-memory chunk) and decodes only those
/// pages into reused scratch columns, checking each against its header;
/// nothing decoded outlives the call.
class PageReader {
 public:
  /// Reads with pread from `fd`, where the chunk starts at `chunk_offset`.
  /// The reader owns `fd` and closes it on destruction. `bytes_read` seeds
  /// the amplification counter with what it cost to get `directory` (the
  /// chunk length when it was just derived, 0 when it came from a cache).
  PageReader(int fd, uint64_t chunk_offset,
             std::shared_ptr<const PageDirectory> directory,
             uint64_t bytes_read);
  /// Reads from the chunk's bytes already in memory.
  PageReader(const uint8_t* chunk,
             std::shared_ptr<const PageDirectory> directory);
  ~PageReader();

  PageReader(const PageReader&) = delete;
  PageReader& operator=(const PageReader&) = delete;

  /// Appends the points in [t_min, t_max] to `out`, in time order. Only
  /// the two boundary pages are filtered; interior pages copy whole.
  Status Query(Timestamp t_min, Timestamp t_max,
               std::vector<TvPairDouble>* out);

  /// Aggregates [t_min, t_max] with page-statistics pushdown: interior
  /// pages fold from the directory's stats, and only the first and last
  /// overlapping pages (plus any page whose stats are NaN) are read and
  /// decoded. Same NaN contract and reset-on-entry behavior as
  /// TsFileReader::AggregateRangeF64; count == 0 means nothing matched.
  /// Partials from several chunks combine with RangeStats::Merge.
  Status Aggregate(Timestamp t_min, Timestamp t_max, RangeStats* stats,
                   size_t* pages_skipped = nullptr);

  /// Page-indexed walk (compaction's merge): DecodePage(p) reads and
  /// decodes page `p` < page_count() alone, with Query's header check; its
  /// points stay in page_times()/page_values() until the next call.
  size_t page_count() const { return dir_->pages.size(); }
  Status DecodePage(size_t p);
  const std::vector<Timestamp>& page_times() const { return ts_; }
  const std::vector<double>& page_values() const { return vals_; }

  const std::shared_ptr<const PageDirectory>& directory() const {
    return dir_;
  }

  /// Read amplification: chunk bytes fetched (directory derivation
  /// included) and pages decoded so far.
  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t pages_decoded() const { return pages_decoded_; }

 private:
  /// Pages [first, last) whose time range overlaps [t_min, t_max].
  std::pair<size_t, size_t> Overlap(Timestamp t_min, Timestamp t_max) const;
  /// Makes the bytes of pages [first, last) addressable (one pread).
  Status Load(size_t first, size_t last);
  /// Decodes page `p`, which must lie in the loaded span, into ts_/vals_.
  Status Decode(size_t p);

  int fd_ = -1;
  uint64_t chunk_offset_ = 0;
  const uint8_t* image_ = nullptr;  // in-memory chunk, instead of fd_
  std::shared_ptr<const PageDirectory> dir_;
  std::vector<uint8_t> buf_;       // pread target
  const uint8_t* span_ = nullptr;  // loaded bytes, from chunk offset span_base_
  uint64_t span_base_ = 0;
  std::vector<Timestamp> ts_;      // one decoded page
  std::vector<double> vals_;
  uint64_t bytes_read_ = 0;
  uint64_t pages_decoded_ = 0;
};

/// The one way to open a sealed chunk: a PageReader over `sensor`'s chunk
/// (`locator`) that owns a fresh read-only fd of `path`. A null
/// `directory` is derived with ReadPageDirectory, and the reader's
/// bytes_read() then starts at `locator.length`.
Status OpenPageReader(const std::string& path, const std::string& sensor,
                      const ChunkLocator& locator,
                      std::shared_ptr<const PageDirectory> directory,
                      std::optional<PageReader>* out);

/// ::fsync an existing file's contents to the storage device. TsFileWriter
/// (ofstream-backed) only flushes to the OS cache; paths that delete
/// another durable copy of the data afterwards — compaction unlinking its
/// inputs, flush unlinking its WAL segment under wal_fsync — call this
/// first so a power cut cannot lose both copies.
Status SyncFileToDisk(const std::string& path);

/// ::fsync a directory, making renames/creations inside it durable. Pair
/// with SyncFileToDisk around an atomic tmp-then-rename publish.
Status SyncDirToDisk(const std::string& path);

}  // namespace backsort

#endif  // BACKSORT_TSFILE_TSFILE_H_
