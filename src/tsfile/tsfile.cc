#include "tsfile/tsfile.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>

#include "encoding/bytes.h"

namespace backsort {

namespace {

constexpr size_t kMagicLen = 5;
/// The file tail: the fixed64 index offset, then the magic again.
constexpr size_t kTailLen = 8 + kMagicLen;

/// Reads exactly `len` bytes at `offset`; a short read is a truncated file.
Status PreadExact(int fd, uint64_t offset, size_t len, uint8_t* dst) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd, dst + done, len - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("pread failed: ") +
                             std::strerror(errno));
    }
    if (n == 0) return Status::Corruption("chunk truncated");
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Checks a sealed file's frame from its first kMagicLen bytes `head` and
/// last kTailLen bytes `tail`, for a `file_size` of at least kMagicLen +
/// kTailLen. Both magics must name the same format version — BSTF2 index
/// entries carry value statistics, stat-less legacy BSTF1 entries do not —
/// and the index block must start after the head and end at the tail.
Status ParseFileFrame(const uint8_t* head, const uint8_t* tail,
                      uint64_t file_size, bool* has_stats,
                      uint64_t* index_offset) {
  const uint8_t* magic = tail + 8;
  *has_stats = std::memcmp(magic, TsFileWriter::kMagicV2, kMagicLen) == 0;
  if (!*has_stats && std::memcmp(magic, TsFileWriter::kMagic, kMagicLen) != 0) {
    return Status::Corruption("bad tail magic (truncated file?)");
  }
  if (std::memcmp(head, magic, kMagicLen) != 0) {
    return Status::Corruption("bad head magic");
  }
  ByteReader r(tail, 8);
  RETURN_NOT_OK(r.GetFixed64(index_offset));
  // file_size >= kMagicLen + kTailLen, so the subtraction cannot underflow
  // (and an offset near UINT64_MAX cannot slip past via overflow).
  if (*index_offset >= file_size - kTailLen || *index_offset < kMagicLen) {
    return Status::Corruption("index offset out of bounds");
  }
  return Status::OK();
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Status FsyncPath(const std::string& path, int flags, const char* what) {
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    return Status::IOError(std::string("cannot open for ") + what + ": " +
                           path);
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IOError(std::string(what) + " failed: " + path);
  }
  return Status::OK();
}

Status EncodeTimeAndValues(Encoding time_enc,
                           const std::vector<Timestamp>& ts, ByteBuffer* out) {
  return EncodeI64(time_enc, ts, out);
}

/// Decodes one chunk from its bytes, appending the points inside
/// [t_min, t_max] to the output columns — TsFileReader's whole-chunk scan.
/// It shares only the header walk with PageReader; page selection, decode
/// and filtering are its own, so the two check each other in the read-path
/// differential tests.
template <typename V>
Status DecodeChunkSpan(const uint8_t* chunk, const ChunkLocator& locator,
                       const std::string& sensor, Timestamp t_min,
                       Timestamp t_max, std::vector<Timestamp>* ts,
                       std::vector<V>* values) {
  PageDirectory dir;
  RETURN_NOT_OK(
      ParsePageDirectory(chunk, locator.length, sensor, locator, &dir));
  ts->clear();
  values->clear();
  std::vector<Timestamp> page_ts;
  std::vector<V> page_vals;
  for (const PageEntry& e : dir.pages) {
    if (e.max_t < t_min || e.min_t > t_max) continue;
    ByteReader time_reader(chunk + e.time_offset, e.time_size);
    RETURN_NOT_OK(DecodeI64(static_cast<Encoding>(dir.time_encoding),
                            &time_reader, e.points, &page_ts));
    ByteReader value_reader(chunk + e.value_offset, e.value_size);
    const auto value_enc = static_cast<Encoding>(dir.value_encoding);
    if constexpr (std::is_same_v<V, int64_t>) {
      RETURN_NOT_OK(DecodeI64(value_enc, &value_reader, e.points, &page_vals));
    } else {
      RETURN_NOT_OK(DecodeF64(value_enc, &value_reader, e.points, &page_vals));
    }
    for (size_t i = 0; i < page_ts.size(); ++i) {
      if (page_ts[i] >= t_min && page_ts[i] <= t_max) {
        ts->push_back(page_ts[i]);
        values->push_back(page_vals[i]);
      }
    }
  }
  return Status::OK();
}

/// Parses one serialized index block into locators. `index_offset` (where
/// the block starts in the file) doubles as the end of the last chunk, so
/// chunk lengths can be derived from consecutive offsets.
Status ParseIndexBlock(const uint8_t* block, size_t size,
                       uint64_t index_offset, uint64_t file_size,
                       bool has_stats, FooterMap* out) {
  out->clear();
  ByteReader idx(block, size);
  uint64_t n = 0;
  RETURN_NOT_OK(idx.GetVarint64(&n));
  // Entries are serialized in write order = ascending offset order; the
  // next entry's offset (or the index block) bounds each chunk.
  std::vector<std::pair<std::string, ChunkLocator>> entries;
  entries.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::string sensor;
    RETURN_NOT_OK(idx.GetLengthPrefixedString(&sensor));
    ChunkLocator locator;
    RETURN_NOT_OK(idx.GetFixed64(&locator.offset));
    RETURN_NOT_OK(idx.GetU8(&locator.raw_type));
    RETURN_NOT_OK(idx.GetVarint64(&locator.points));
    int64_t lo = 0, hi = 0;
    RETURN_NOT_OK(idx.GetVarintSigned64(&lo));
    RETURN_NOT_OK(idx.GetVarintSigned64(&hi));
    locator.min_t = lo;
    locator.max_t = hi;
    if (has_stats) {
      // BSTF2 entries append the chunk's value statistics.
      uint64_t bits[5];
      for (uint64_t& b : bits) RETURN_NOT_OK(idx.GetFixed64(&b));
      locator.min_v = BitsToDouble(bits[0]);
      locator.max_v = BitsToDouble(bits[1]);
      locator.sum_v = BitsToDouble(bits[2]);
      locator.first_v = BitsToDouble(bits[3]);
      locator.last_v = BitsToDouble(bits[4]);
      locator.has_stats = true;
    }
    if (locator.offset >= file_size || locator.offset > index_offset) {
      return Status::Corruption("chunk offset out of bounds");
    }
    if (i > 0 && locator.offset < entries.back().second.offset) {
      return Status::Corruption("chunk offsets not ascending");
    }
    entries.emplace_back(std::move(sensor), locator);
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    const uint64_t end =
        i + 1 < entries.size() ? entries[i + 1].second.offset : index_offset;
    entries[i].second.length = end - entries[i].second.offset;
    (*out)[entries[i].first] = entries[i].second;
  }
  return Status::OK();
}

}  // namespace

// --- writer -----------------------------------------------------------------

namespace {

/// Serializes the header of the page holding points [begin, end) of the
/// columns, built from their fold, and folds the same points into the
/// chunk's stats. The chunk folds them one by one too, so its sum is the
/// sequential sum a decode computes, not a sum of page sums. An all-NaN
/// page stores min = +inf, max = -inf, sum = 0.
template <typename V>
void PutPageHeader(const std::vector<Timestamp>& ts,
                   const std::vector<V>& values, size_t begin, size_t end,
                   ByteBuffer* out, RangeStats* chunk) {
  // Folding into locals keeps both aggregates in registers: through
  // `chunk` the compiler would have to assume the columns alias it.
  RangeStats page;
  RangeStats folded = *chunk;
  for (size_t i = begin; i < end; ++i) {
    const double v = static_cast<double>(values[i]);
    page.Fold(ts[i], v);
    folded.Fold(ts[i], v);
  }
  *chunk = folded;
  out->PutVarint64(page.count);
  out->PutVarintSigned64(page.first_time);
  out->PutVarintSigned64(page.last_time);
  out->PutFixed64(DoubleBits(page.min));
  out->PutFixed64(DoubleBits(page.max));
  out->PutFixed64(DoubleBits(page.sum));
}

/// Serializes one page — stats header plus the encoded time/value buffers
/// — covering points [begin, end) of the columns. The single definition
/// of page bytes: the whole-chunk path and ChunkBuilder both call it, so
/// their output is bit-identical by construction.
template <typename V>
Status EncodePage(const std::vector<Timestamp>& ts,
                  const std::vector<V>& values, size_t begin, size_t end,
                  Encoding time_enc, Encoding value_enc, ByteBuffer* out,
                  RangeStats* chunk) {
  PutPageHeader(ts, values, begin, end, out, chunk);

  std::vector<Timestamp> page_ts(ts.begin() + static_cast<ptrdiff_t>(begin),
                                 ts.begin() + static_cast<ptrdiff_t>(end));
  ByteBuffer time_buf;
  RETURN_NOT_OK(EncodeTimeAndValues(time_enc, page_ts, &time_buf));
  out->PutVarint64(time_buf.size());
  out->Append(time_buf);

  std::vector<V> page_vals(values.begin() + static_cast<ptrdiff_t>(begin),
                           values.begin() + static_cast<ptrdiff_t>(end));
  ByteBuffer value_buf;
  if constexpr (std::is_same_v<V, int64_t>) {
    RETURN_NOT_OK(EncodeI64(value_enc, page_vals, &value_buf));
  } else {
    RETURN_NOT_OK(EncodeF64(value_enc, page_vals, &value_buf));
  }
  out->PutVarint64(value_buf.size());
  out->Append(value_buf);
  return Status::OK();
}

/// Serializes a chunk header: sensor, data type, encodings, page count.
void PutChunkHeader(std::string_view sensor, DataType type,
                    Encoding time_enc, Encoding value_enc,
                    uint64_t page_count, ByteBuffer* out) {
  out->PutLengthPrefixedString(sensor);
  out->PutU8(static_cast<uint8_t>(type));
  out->PutU8(static_cast<uint8_t>(time_enc));
  out->PutU8(static_cast<uint8_t>(value_enc));
  out->PutVarint64(page_count);
}

/// Serializes one chunk body (header + pages) into a standalone buffer.
/// Every byte WriteChunkImpl used to append to the file buffer lands here
/// in the same order, so encode-then-append is bit-identical to the
/// in-place path.
template <typename V>
Status EncodeChunkBody(std::string_view sensor,
                       const std::vector<Timestamp>& ts,
                       const std::vector<V>& values, DataType type,
                       Encoding time_enc, Encoding value_enc,
                       size_t points_per_page, ByteBuffer* out,
                       RangeStats* stats) {
  if (ts.size() != values.size()) {
    return Status::InvalidArgument("time/value size mismatch");
  }
  if (!std::is_sorted(ts.begin(), ts.end())) {
    return Status::InvalidArgument(
        "chunk timestamps must be sorted before writing (flush sorts first)");
  }
  if (points_per_page == 0) {
    points_per_page = TsFileWriter::kDefaultPointsPerPage;
  }

  const size_t page_count = ts.empty()
                                ? 0
                                : (ts.size() + points_per_page - 1) /
                                      points_per_page;
  PutChunkHeader(sensor, type, time_enc, value_enc, page_count, out);

  for (size_t p = 0; p < page_count; ++p) {
    const size_t begin = p * points_per_page;
    const size_t end = std::min(begin + points_per_page, ts.size());
    RETURN_NOT_OK(EncodePage(ts, values, begin, end, time_enc, value_enc,
                             out, stats));
  }
  return Status::OK();
}

}  // namespace

template <typename V>
Status TsFileWriter::WriteChunkImpl(std::string_view sensor,
                                    const std::vector<Timestamp>& ts,
                                    const std::vector<V>& values,
                                    DataType type, Encoding time_enc,
                                    Encoding value_enc,
                                    size_t points_per_page) {
  if (finished_) return Status::InvalidArgument("writer already finished");
  ByteBuffer body;
  RangeStats stats;
  RETURN_NOT_OK(EncodeChunkBody(sensor, ts, values, type, time_enc,
                                value_enc, points_per_page, &body, &stats));
  BeginAppend(sensor, type, stats);
  buffer_.Append(body);
  return MaybeSpill();
}

Status TsFileWriter::EncodeChunkF64(std::string_view sensor,
                                    const std::vector<Timestamp>& ts,
                                    const std::vector<double>& values,
                                    Encoding time_enc, Encoding value_enc,
                                    size_t points_per_page,
                                    EncodedChunk* out) {
  out->body.Clear();
  out->type = DataType::kDouble;
  out->stats = RangeStats{};
  return EncodeChunkBody(sensor, ts, values, DataType::kDouble, time_enc,
                         value_enc, points_per_page, &out->body,
                         &out->stats);
}

void TsFileWriter::BeginAppend(std::string_view sensor, DataType type,
                               const RangeStats& stats) {
  if (FileOffset() == 0) {
    buffer_.PutBytes(magic(), kMagicLen);
  }
  index_.push_back({std::string(sensor), FileOffset(), type, stats});
}

Status TsFileWriter::AppendEncodedChunk(std::string_view sensor,
                                        const EncodedChunk& chunk) {
  if (finished_) return Status::InvalidArgument("writer already finished");
  BeginAppend(sensor, chunk.type, chunk.stats);
  buffer_.Append(chunk.body);
  return MaybeSpill();
}

Status TsFileWriter::AppendChunk(const ChunkBuilder& chunk) {
  if (finished_) return Status::InvalidArgument("writer already finished");
  BeginAppend(chunk.sensor_, DataType::kDouble, chunk.stats_);
  PutChunkHeader(chunk.sensor_, DataType::kDouble, chunk.time_enc_,
                 chunk.value_enc_, chunk.page_count_, &buffer_);
  buffer_.Append(chunk.pages_);
  return MaybeSpill();
}

Status TsFileWriter::WriteChunkI64(std::string_view sensor,
                                   const std::vector<Timestamp>& ts,
                                   const std::vector<int64_t>& values,
                                   Encoding time_enc, Encoding value_enc,
                                   size_t points_per_page) {
  return WriteChunkImpl(sensor, ts, values, DataType::kInt64, time_enc,
                        value_enc, points_per_page);
}

Status TsFileWriter::WriteChunkF64(std::string_view sensor,
                                   const std::vector<Timestamp>& ts,
                                   const std::vector<double>& values,
                                   Encoding time_enc, Encoding value_enc,
                                   size_t points_per_page) {
  return WriteChunkImpl(sensor, ts, values, DataType::kDouble, time_enc,
                        value_enc, points_per_page);
}

Status TsFileWriter::SpillBuffer() {
  if (buffer_.size() == 0) return Status::OK();
  if (!spill_out_.is_open()) {
    spill_out_.open(path_, std::ios::binary | std::ios::trunc);
    if (!spill_out_) {
      return Status::IOError("cannot open for write: " + path_);
    }
  }
  spill_out_.write(reinterpret_cast<const char*>(buffer_.data().data()),
                   static_cast<std::streamsize>(buffer_.size()));
  if (!spill_out_) return Status::IOError("write failed: " + path_);
  spilled_bytes_ += buffer_.size();
  buffer_.Clear();
  return Status::OK();
}

Status TsFileWriter::MaybeSpill() {
  if (spill_threshold_ == 0 || buffer_.size() < spill_threshold_) {
    return Status::OK();
  }
  return SpillBuffer();
}

Status ChunkBuilder::CheckNextPage(const std::vector<Timestamp>& ts,
                                   const std::vector<double>& values) const {
  if (ts.empty() || ts.size() != values.size()) {
    return Status::InvalidArgument("bad page columns");
  }
  if (!std::is_sorted(ts.begin(), ts.end())) {
    return Status::InvalidArgument("page timestamps must be sorted");
  }
  if (stats_.count > 0 && ts.front() < stats_.last_time) {
    return Status::InvalidArgument("pages must be appended in time order");
  }
  return Status::OK();
}

Status ChunkBuilder::AppendPageF64(const std::vector<Timestamp>& ts,
                                   const std::vector<double>& values) {
  RETURN_NOT_OK(CheckNextPage(ts, values));
  RETURN_NOT_OK(EncodePage(ts, values, 0, ts.size(), time_enc_, value_enc_,
                           &pages_, &stats_));
  ++page_count_;
  return Status::OK();
}

Status ChunkBuilder::AppendEncodedPageF64(
    const std::vector<Timestamp>& ts, const std::vector<double>& values,
    std::span<const uint8_t> time_bytes, std::span<const uint8_t> value_bytes) {
  RETURN_NOT_OK(CheckNextPage(ts, values));
  PutPageHeader(ts, values, 0, ts.size(), &pages_, &stats_);
  pages_.PutVarint64(time_bytes.size());
  pages_.PutBytes(time_bytes.data(), time_bytes.size());
  pages_.PutVarint64(value_bytes.size());
  pages_.PutBytes(value_bytes.data(), value_bytes.size());
  ++page_count_;
  return Status::OK();
}

Status TsFileWriter::Finish() {
  if (finished_) return Status::InvalidArgument("writer already finished");
  if (FileOffset() == 0) {
    buffer_.PutBytes(magic(), kMagicLen);
  }
  const uint64_t index_offset = FileOffset();
  buffer_.PutVarint64(index_.size());
  // Each index entry is serialized from the locator the writer hands out,
  // so Locators() is what ReadTsFileFooter parses back. Flat sorted
  // entries instead of a FooterMap: sealing a 100k-sensor table costs two
  // large allocations here, not 100k tree nodes the allocator would
  // retain after the writer dies. Lexicographic order is what the map
  // iteration used to give every consumer.
  locators_.clear();
  locators_.reserve(index_.size());
  for (size_t i = 0; i < index_.size(); ++i) {
    const IndexEntry& e = index_[i];
    ChunkLocator locator;  // time range [0, -1] when the chunk is empty
    locator.offset = e.offset;
    locator.length =
        (i + 1 < index_.size() ? index_[i + 1].offset : index_offset) -
        e.offset;
    locator.points = e.stats.count;
    locator.raw_type = static_cast<uint8_t>(e.type);
    if (e.stats.count > 0) {
      locator.min_t = e.stats.first_time;
      locator.max_t = e.stats.last_time;
    }
    buffer_.PutLengthPrefixedString(e.sensor);
    buffer_.PutFixed64(locator.offset);
    buffer_.PutU8(locator.raw_type);
    buffer_.PutVarint64(locator.points);
    buffer_.PutVarintSigned64(locator.min_t);
    buffer_.PutVarintSigned64(locator.max_t);
    if (footer_stats_) {
      // An empty chunk stores the all-NaN sentinels min = +inf and
      // max = -inf, since no value took part in min/max; an empty
      // RangeStats reads 0/0 instead.
      const bool empty = e.stats.count == 0;
      locator.has_stats = true;
      locator.min_v = empty ? std::numeric_limits<double>::infinity()
                            : e.stats.min;
      locator.max_v = empty ? -std::numeric_limits<double>::infinity()
                            : e.stats.max;
      locator.sum_v = e.stats.sum;
      locator.first_v = e.stats.first;
      locator.last_v = e.stats.last;
      for (const double v : {locator.min_v, locator.max_v, locator.sum_v,
                             locator.first_v, locator.last_v}) {
        buffer_.PutFixed64(DoubleBits(v));
      }
    }
    locators_.emplace_back(e.sensor, locator);
  }
  buffer_.PutFixed64(index_offset);
  buffer_.PutBytes(magic(), kMagicLen);

  std::sort(locators_.begin(), locators_.end(),
            [](const FooterEntries::value_type& a,
               const FooterEntries::value_type& b) {
              return a.first < b.first;
            });

  RETURN_NOT_OK(SpillBuffer());
  spill_out_.flush();
  if (!spill_out_) return Status::IOError("write failed: " + path_);
  spill_out_.close();
  finished_ = true;
  return Status::OK();
}

// --- reader -----------------------------------------------------------------

Status TsFileReader::Open() {
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open for read: " + path_);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  data_.resize(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(data_.data()), size);
  if (!in) return Status::IOError("read failed: " + path_);

  if (data_.size() < kMagicLen + kTailLen) {
    return Status::Corruption("file too small for header/footer");
  }
  bool has_stats = false;
  uint64_t index_offset = 0;
  RETURN_NOT_OK(ParseFileFrame(data_.data(),
                               data_.data() + data_.size() - kTailLen,
                               data_.size(), &has_stats, &index_offset));
  return ParseIndexBlock(data_.data() + index_offset,
                         data_.size() - index_offset - kTailLen, index_offset,
                         data_.size(), has_stats, &locators_);
}

std::vector<std::string> TsFileReader::Sensors() const {
  std::vector<std::string> out;
  out.reserve(locators_.size());
  for (const auto& [sensor, _] : locators_) out.push_back(sensor);
  return out;
}

Status TsFileReader::GetDataType(const std::string& sensor,
                                 DataType* out) const {
  auto it = locators_.find(sensor);
  if (it == locators_.end()) return Status::NotFound("sensor: " + sensor);
  *out = static_cast<DataType>(it->second.raw_type);
  return Status::OK();
}

template <typename V>
Status TsFileReader::ReadChunkImpl(const std::string& sensor,
                                   DataType expect_type, Timestamp t_min,
                                   Timestamp t_max,
                                   std::vector<Timestamp>* ts,
                                   std::vector<V>* values) const {
  auto it = locators_.find(sensor);
  if (it == locators_.end()) return Status::NotFound("sensor: " + sensor);
  if (static_cast<DataType>(it->second.raw_type) != expect_type) {
    return Status::InvalidArgument("data type mismatch for " + sensor);
  }
  const ChunkLocator& locator = it->second;
  return DecodeChunkSpan(data_.data() + locator.offset, locator, sensor,
                         t_min, t_max, ts, values);
}

Status TsFileReader::ReadChunkI64(const std::string& sensor,
                                  std::vector<Timestamp>* ts,
                                  std::vector<int64_t>* values) const {
  return ReadChunkImpl(sensor, DataType::kInt64,
                       std::numeric_limits<Timestamp>::min(),
                       std::numeric_limits<Timestamp>::max(), ts, values);
}

Status TsFileReader::ReadChunkF64(const std::string& sensor,
                                  std::vector<Timestamp>* ts,
                                  std::vector<double>* values) const {
  return ReadChunkImpl(sensor, DataType::kDouble,
                       std::numeric_limits<Timestamp>::min(),
                       std::numeric_limits<Timestamp>::max(), ts, values);
}

Status TsFileReader::QueryRangeF64(const std::string& sensor, Timestamp t_min,
                                   Timestamp t_max,
                                   std::vector<Timestamp>* ts,
                                   std::vector<double>* values) const {
  return ReadChunkImpl(sensor, DataType::kDouble, t_min, t_max, ts, values);
}

Status TsFileReader::AggregateRangeF64(const std::string& sensor,
                                       Timestamp t_min, Timestamp t_max,
                                       RangeStats* stats) const {
  *stats = RangeStats{};
  std::vector<Timestamp> ts;
  std::vector<double> values;
  RETURN_NOT_OK(QueryRangeF64(sensor, t_min, t_max, &ts, &values));
  for (size_t i = 0; i < ts.size(); ++i) {
    if (i + 1 == ts.size() || ts[i + 1] != ts[i]) stats->Fold(ts[i], values[i]);
  }
  return Status::OK();
}

// --- page directory + page reader -------------------------------------------

Status ParsePageDirectory(const uint8_t* chunk, size_t size,
                          const std::string& sensor,
                          const ChunkLocator& locator, PageDirectory* out) {
  ByteReader r(chunk, size);
  std::string stored_sensor;
  RETURN_NOT_OK(r.GetLengthPrefixedString(&stored_sensor));
  if (stored_sensor != sensor) {
    return Status::Corruption("chunk header sensor mismatch");
  }
  uint8_t type = 0;
  RETURN_NOT_OK(r.GetU8(&type));
  RETURN_NOT_OK(r.GetU8(&out->time_encoding));
  RETURN_NOT_OK(r.GetU8(&out->value_encoding));
  auto integer_encoding = [](uint8_t e) {
    return e <= static_cast<uint8_t>(Encoding::kSimple8b) &&
           e != static_cast<uint8_t>(Encoding::kGorilla);
  };
  const bool value_ok =
      type == static_cast<uint8_t>(DataType::kDouble)
          ? (out->value_encoding == static_cast<uint8_t>(Encoding::kPlain) ||
             out->value_encoding == static_cast<uint8_t>(Encoding::kGorilla))
          : integer_encoding(out->value_encoding);
  if (type != locator.raw_type || !integer_encoding(out->time_encoding) ||
      !value_ok) {
    return Status::Corruption("chunk header type or encoding invalid");
  }
  uint64_t page_count = 0;
  RETURN_NOT_OK(r.GetVarint64(&page_count));
  if (page_count > locator.points) {
    return Status::Corruption("more pages than chunk points");
  }
  out->pages.clear();
  out->pages.reserve(page_count);
  uint64_t points = 0;
  for (uint64_t p = 0; p < page_count; ++p) {
    PageEntry e;
    e.offset = r.position();
    uint64_t count = 0;
    RETURN_NOT_OK(r.GetVarint64(&count));
    if (count == 0 || count > locator.points - points) {
      return Status::Corruption("page counts do not match chunk points");
    }
    RETURN_NOT_OK(r.GetVarintSigned64(&e.min_t));
    RETURN_NOT_OK(r.GetVarintSigned64(&e.max_t));
    if (e.min_t > e.max_t ||
        (!out->pages.empty() && e.min_t < out->pages.back().max_t)) {
      return Status::Corruption("page times go backwards");
    }
    uint64_t bits[3];
    for (uint64_t& b : bits) RETURN_NOT_OK(r.GetFixed64(&b));
    e.min_v = BitsToDouble(bits[0]);
    e.max_v = BitsToDouble(bits[1]);
    e.sum_v = BitsToDouble(bits[2]);
    uint64_t time_size = 0, value_size = 0;
    RETURN_NOT_OK(r.GetVarint64(&time_size));
    if (time_size > r.remaining()) {
      return Status::Corruption("page time buffer overruns chunk");
    }
    e.time_offset = r.position();
    RETURN_NOT_OK(r.Skip(time_size));
    RETURN_NOT_OK(r.GetVarint64(&value_size));
    if (value_size > r.remaining()) {
      return Status::Corruption("page value buffer overruns chunk");
    }
    e.value_offset = r.position();
    RETURN_NOT_OK(r.Skip(value_size));
    const uint64_t length = r.position() - e.offset;
    if (length > std::numeric_limits<uint32_t>::max()) {
      return Status::Corruption("page too large");
    }
    e.length = static_cast<uint32_t>(length);
    e.points = static_cast<uint32_t>(count);
    e.time_size = static_cast<uint32_t>(time_size);
    e.value_size = static_cast<uint32_t>(value_size);
    points += count;
    out->pages.push_back(e);
  }
  if (points != locator.points) {
    return Status::Corruption("page counts do not match chunk points");
  }
  return Status::OK();
}

Status ReadPageDirectory(int fd, const std::string& sensor,
                         const ChunkLocator& locator, PageDirectory* out) {
  if (static_cast<DataType>(locator.raw_type) != DataType::kDouble) {
    return Status::InvalidArgument("data type mismatch for " + sensor);
  }
  std::vector<uint8_t> chunk(static_cast<size_t>(locator.length));
  RETURN_NOT_OK(PreadExact(fd, locator.offset, chunk.size(), chunk.data()));
  return ParsePageDirectory(chunk.data(), chunk.size(), sensor, locator, out);
}

PageReader::PageReader(std::string path, uint64_t chunk_offset,
                       std::shared_ptr<const PageDirectory> directory,
                       uint64_t bytes_read)
    : path_(std::move(path)),
      chunk_offset_(chunk_offset),
      dir_(std::move(directory)),
      bytes_read_(bytes_read) {}

PageReader::PageReader(const uint8_t* chunk,
                       std::shared_ptr<const PageDirectory> directory)
    : image_(chunk), dir_(std::move(directory)) {}

PageReader::~PageReader() { CloseFile(); }

void PageReader::CloseFile() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::pair<size_t, size_t> PageReader::Overlap(Timestamp t_min,
                                              Timestamp t_max) const {
  // Page times are non-decreasing (ParsePageDirectory checks), so both
  // bounds are partition points.
  const std::vector<PageEntry>& pages = dir_->pages;
  const auto first = std::partition_point(
      pages.begin(), pages.end(),
      [t_min](const PageEntry& e) { return e.max_t < t_min; });
  const auto last = std::partition_point(
      first, pages.end(),
      [t_max](const PageEntry& e) { return e.min_t <= t_max; });
  return {static_cast<size_t>(first - pages.begin()),
          static_cast<size_t>(last - pages.begin())};
}

Status PageReader::Load(size_t first, size_t last) {
  const PageEntry& tail = dir_->pages[last - 1];
  span_base_ = dir_->pages[first].offset;
  const size_t len = static_cast<size_t>(tail.offset + tail.length - span_base_);
  bytes_read_ += len;
  span_first_ = first;
  span_last_ = first;  // nothing is loaded until the read succeeds
  if (image_ != nullptr) {
    span_ = image_ + span_base_;
  } else {
    if (fd_ < 0) {
      fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
      if (fd_ < 0) return Status::IOError("cannot open for read: " + path_);
    }
    buf_.resize(len);
    span_ = buf_.data();
    RETURN_NOT_OK(
        PreadExact(fd_, chunk_offset_ + span_base_, len, buf_.data()));
  }
  span_last_ = last;
  return Status::OK();
}

Status PageReader::Decode(size_t p) {
  const PageEntry& e = dir_->pages[p];
  ByteReader time_reader(span_ + (e.time_offset - span_base_), e.time_size);
  RETURN_NOT_OK(DecodeI64(static_cast<Encoding>(dir_->time_encoding),
                          &time_reader, e.points, &ts_));
  ByteReader value_reader(span_ + (e.value_offset - span_base_),
                          e.value_size);
  RETURN_NOT_OK(DecodeF64(static_cast<Encoding>(dir_->value_encoding),
                          &value_reader, e.points, &vals_));
  if (ts_.size() != e.points || vals_.size() != e.points ||
      ts_.front() != e.min_t || ts_.back() != e.max_t) {
    return Status::Corruption("page decode disagrees with its header");
  }
  decoded_page_ = p;
  ++pages_decoded_;
  return Status::OK();
}

std::span<const uint8_t> PageReader::page_time_bytes() const {
  const PageEntry& e = dir_->pages[decoded_page_];
  return {span_ + (e.time_offset - span_base_), e.time_size};
}

std::span<const uint8_t> PageReader::page_value_bytes() const {
  const PageEntry& e = dir_->pages[decoded_page_];
  return {span_ + (e.value_offset - span_base_), e.value_size};
}

Status PageReader::DecodePage(size_t p) {
  if (p < span_first_ || p >= span_last_) RETURN_NOT_OK(Load(p, p + 1));
  return Decode(p);
}

Status PageReader::Prefetch(Timestamp t_min, Timestamp t_max) {
  const auto [first, last] = Overlap(t_min, t_max);
  const Status st = first < last ? Load(first, last) : Status::OK();
  CloseFile();
  return st;
}

Status PageReader::Query(Timestamp t_min, Timestamp t_max,
                         std::vector<TvPairDouble>* out) {
  const auto [first, last] = Overlap(t_min, t_max);
  if (first >= last) return Status::OK();
  RETURN_NOT_OK(Load(first, last));
  size_t points = 0;
  for (size_t p = first; p < last; ++p) points += dir_->pages[p].points;
  out->reserve(out->size() + points);
  for (size_t p = first; p < last; ++p) {
    RETURN_NOT_OK(Decode(p));
    const PageEntry& e = dir_->pages[p];
    const bool inside = e.min_t >= t_min && e.max_t <= t_max;
    for (size_t i = 0; i < ts_.size(); ++i) {
      if (inside || (ts_[i] >= t_min && ts_[i] <= t_max)) {
        out->push_back({ts_[i], vals_[i]});
      }
    }
  }
  return Status::OK();
}

Status OpenPageReader(const std::string& path, const std::string& sensor,
                      const ChunkLocator& locator,
                      std::shared_ptr<const PageDirectory> directory,
                      std::optional<PageReader>* out) {
  uint64_t derived_bytes = 0;
  if (directory == nullptr) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return Status::IOError("cannot open for read: " + path);
    auto fresh = std::make_shared<PageDirectory>();
    const Status st = ReadPageDirectory(fd, sensor, locator, fresh.get());
    ::close(fd);
    RETURN_NOT_OK(st);
    derived_bytes = locator.length;
    directory = std::move(fresh);
  }
  out->emplace(path, locator.offset, std::move(directory), derived_bytes);
  return Status::OK();
}

// --- standalone footer read ------------------------------------------------

namespace {

/// ReadTsFileFooter on an open descriptor of `path`.
Status ReadFooterFromFd(int fd, const std::string& path, FooterMap* out) {
  struct stat st;
  if (::fstat(fd, &st) != 0) return Status::IOError("fstat failed: " + path);
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < kMagicLen + kTailLen) {
    return Status::Corruption("file too small for header/footer");
  }
  uint8_t head[kMagicLen];
  uint8_t tail[kTailLen];
  RETURN_NOT_OK(PreadExact(fd, 0, sizeof(head), head));
  RETURN_NOT_OK(PreadExact(fd, file_size - kTailLen, sizeof(tail), tail));
  bool has_stats = false;
  uint64_t index_offset = 0;
  RETURN_NOT_OK(
      ParseFileFrame(head, tail, file_size, &has_stats, &index_offset));
  std::vector<uint8_t> block(
      static_cast<size_t>(file_size - kTailLen - index_offset));
  RETURN_NOT_OK(PreadExact(fd, index_offset, block.size(), block.data()));
  return ParseIndexBlock(block.data(), block.size(), index_offset, file_size,
                         has_stats, out);
}

}  // namespace

Status ReadTsFileFooter(const std::string& path, FooterMap* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open for read: " + path);
  const Status st = ReadFooterFromFd(fd, path, out);
  ::close(fd);
  return st;
}

Status SyncFileToDisk(const std::string& path) {
  return FsyncPath(path, O_RDONLY, "file fsync");
}

Status SyncDirToDisk(const std::string& path) {
  return FsyncPath(path, O_RDONLY | O_DIRECTORY, "directory fsync");
}

}  // namespace backsort
