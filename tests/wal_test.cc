#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "benchkit/digest.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "disorder/series_generator.h"
#include "encoding/bytes.h"
#include "engine/storage_engine.h"
#include "engine/wal.h"
#include "engine/wal_tailer.h"

namespace backsort {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("wal_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

/// Appends one point as a one-point group commit — the record Write emits.
Status AppendPoint(WalWriter& writer, const std::string& sensor, Timestamp t,
                   double v) {
  const TvPairDouble point{t, v};
  const SensorSpanDouble span{&sensor, &point, 1};
  return writer.AppendBatch(&span, 1);
}

TEST(Crc32, KnownVectors) {
  // "123456789" -> 0xCBF43926 is the canonical CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Incremental == one-shot.
  const char* s = "backward-sort";
  const uint32_t whole = Crc32(s, 13);
  const uint32_t part = Crc32(s + 5, 8, Crc32(s, 5));
  EXPECT_EQ(whole, part);
}

/// Bit-at-a-time CRC-32 (reflected 0xedb88320): the definition itself,
/// independent of both the table and the carry-less-multiply paths.
uint32_t BitwiseCrc32(const uint8_t* p, size_t n, uint32_t seed) {
  uint32_t c = seed ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1)));
  }
  return c ^ 0xffffffffu;
}

/// Checks Crc32 and the table-only path against the bitwise definition
/// for one (offset, length, seed) slice of `buf`.
void ExpectCrcMatches(const std::vector<uint8_t>& buf, size_t off, size_t n,
                      uint32_t seed) {
  const uint8_t* p = buf.data() + off;
  const uint32_t want = BitwiseCrc32(p, n, seed);
  ASSERT_EQ(Crc32(p, n, seed), want) << "off " << off << " n " << n;
  ASSERT_EQ(crc32_internal::Crc32Table(p, n, seed), want)
      << "off " << off << " n " << n;
}

TEST(Crc32, MatchesBitwiseReferenceAcrossLengthsOffsetsAndSeeds) {
  // Records whether this run exercised the folded path at all.
  RecordProperty("fold_available", crc32_internal::Crc32FoldAvailable());
  Rng rng(0xc3c3);
  std::vector<uint8_t> buf((1u << 20) + 64);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  // Every length 0..1024 at every 16-byte alignment: the fold's 64-byte
  // threshold, the 16-byte bulk/tail split and the 4-lane loop boundary.
  for (size_t off = 0; off < 16; ++off) {
    for (size_t n = 0; n <= 1024; ++n) {
      ExpectCrcMatches(buf, off, n, off == 0 ? 0 : static_cast<uint32_t>(n));
      if (HasFatalFailure()) return;
    }
  }
  // Random lengths up to 1 MiB, random offsets and seeds.
  for (int i = 0; i < 200; ++i) {
    const size_t off = rng.NextBelow(16);
    const size_t n = rng.NextBelow((1u << 20) + 1);
    ExpectCrcMatches(buf, off, n, static_cast<uint32_t>(rng.NextU64()));
    if (HasFatalFailure()) return;
  }
}

TEST(Crc32, ChainedCallsMatchOneShot) {
  // Crc32(b, Crc32(a)) == Crc32(a ++ b) with split points inside the
  // folded bulk, at its edges and in the table-only tail.
  Rng rng(0x5eed);
  std::vector<uint8_t> buf(70000);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  for (int i = 0; i < 500; ++i) {
    const size_t n = rng.NextBelow(buf.size() + 1);
    const size_t split = rng.NextBelow(n + 1);
    const uint32_t seed = static_cast<uint32_t>(rng.NextU64());
    const uint32_t whole = BitwiseCrc32(buf.data(), n, seed);
    ASSERT_EQ(Crc32(buf.data() + split, n - split,
                    Crc32(buf.data(), split, seed)),
              whole)
        << "n " << n << " split " << split;
    ASSERT_EQ(crc32_internal::Crc32Table(
                  buf.data() + split, n - split,
                  crc32_internal::Crc32Table(buf.data(), split, seed)),
              whole)
        << "n " << n << " split " << split;
  }
  for (size_t split : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                       size_t{63}, size_t{64}, size_t{65}, size_t{127},
                       size_t{128}, size_t{200}}) {
    ASSERT_EQ(Crc32(buf.data() + split, 256 - split,
                    Crc32(buf.data(), split)),
              BitwiseCrc32(buf.data(), 256, 0))
        << "split " << split;
  }
}

TEST_F(WalTest, AppendAndReplay) {
  const std::string path = Path("wal-0.log");
  {
    WalWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(AppendPoint(writer, "s1", 10, 1.5).ok());
    ASSERT_TRUE(AppendPoint(writer, "s2", -7, -2.25).ok());
    ASSERT_TRUE(AppendPoint(writer, "s1", 11, 3.0).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  std::vector<WalRecord> records;
  bool torn = true;
  ASSERT_TRUE(ReadWal(path, &records, &torn).ok());
  EXPECT_FALSE(torn);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].sensor, "s1");
  EXPECT_EQ(records[0].t, 10);
  EXPECT_DOUBLE_EQ(records[0].v, 1.5);
  EXPECT_EQ(records[1].sensor, "s2");
  EXPECT_EQ(records[1].t, -7);
  EXPECT_DOUBLE_EQ(records[1].v, -2.25);
}

TEST_F(WalTest, TornTailLosesOnlyLastRecord) {
  const std::string path = Path("wal-1.log");
  {
    WalWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(AppendPoint(writer, "s", i, i * 1.0).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }
  // Chop a few bytes off the tail, as a crash mid-append would.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);
  std::vector<WalRecord> records;
  bool torn = false;
  ASSERT_TRUE(ReadWal(path, &records, &torn).ok());
  EXPECT_TRUE(torn);
  ASSERT_EQ(records.size(), 99u);
  EXPECT_EQ(records.back().t, 98);
}

TEST_F(WalTest, BitFlipDetectedByCrc) {
  const std::string path = Path("wal-2.log");
  {
    WalWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(AppendPoint(writer, "s", 1, 1.0).ok());
    ASSERT_TRUE(AppendPoint(writer, "s", 2, 2.0).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);  // inside the first record's payload
    char byte;
    f.seekg(10);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(10);
    f.write(&byte, 1);
  }
  std::vector<WalRecord> records;
  bool torn = false;
  ASSERT_TRUE(ReadWal(path, &records, &torn).ok());
  EXPECT_TRUE(torn);         // stops at the damaged frame
  EXPECT_TRUE(records.empty());
}

// --- batch records and format versioning ---------------------------------------

TEST_F(WalTest, BatchAppendExpandsInWriteOrder) {
  const std::string path = Path("wal-batch.log");
  const std::string s1 = "a", s2 = "b";
  const std::vector<TvPairDouble> p1 = {{1, 1.0}, {2, 2.0}, {3, -0.5}};
  const std::vector<TvPairDouble> p2 = {{5, -1.5}};
  {
    WalWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(AppendPoint(writer, "solo", 0, 9.0).ok());
    const SensorSpanDouble groups[] = {
        {&s1, p1.data(), p1.size()},
        {&s2, nullptr, 0},  // empty group: skipped, not encoded
        {&s2, p2.data(), p2.size()},
    };
    ASSERT_TRUE(writer.AppendBatch(groups, 3).ok());
    ASSERT_TRUE(AppendPoint(writer, "solo", 1, 10.0).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  std::vector<WalRecord> records;
  bool torn = true;
  ASSERT_TRUE(ReadWal(path, &records, &torn).ok());
  EXPECT_FALSE(torn);
  // The batch flattens to per-point records in write order, between the
  // two one-point frames around it.
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records[0].sensor, "solo");
  EXPECT_EQ(records[1].sensor, "a");
  EXPECT_EQ(records[1].t, 1);
  EXPECT_EQ(records[2].t, 2);
  EXPECT_EQ(records[3].t, 3);
  EXPECT_DOUBLE_EQ(records[3].v, -0.5);
  EXPECT_EQ(records[4].sensor, "b");
  EXPECT_EQ(records[4].t, 5);
  EXPECT_DOUBLE_EQ(records[4].v, -1.5);
  EXPECT_EQ(records[5].sensor, "solo");
  EXPECT_EQ(records[5].t, 1);
}

TEST_F(WalTest, AllEmptyBatchWritesNothing) {
  const std::string path = Path("wal-empty-batch.log");
  // First open+close persists just the version header; its on-disk size is
  // the baseline an all-empty batch must not grow.
  {
    WalWriter header_only(path);
    ASSERT_TRUE(header_only.Open().ok());
    ASSERT_TRUE(header_only.Close().ok());
  }
  const auto header_size = std::filesystem::file_size(path);
  ASSERT_GT(header_size, 0u);
  WalWriter writer(path);
  ASSERT_TRUE(writer.Open().ok());
  const std::string s = "a";
  const SensorSpanDouble group{&s, nullptr, 0};
  ASSERT_TRUE(writer.AppendBatch(&group, 1).ok());
  ASSERT_TRUE(writer.AppendBatch(nullptr, 0).ok());
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(std::filesystem::file_size(path), header_size);
  std::vector<WalRecord> records;
  bool torn = true;
  ASSERT_TRUE(ReadWal(path, &records, &torn).ok());
  EXPECT_FALSE(torn);
  EXPECT_TRUE(records.empty());
}

TEST_F(WalTest, BatchTornTailLosesOnlyLastFrame) {
  const std::string path = Path("wal-batch-torn.log");
  std::vector<TvPairDouble> points;
  for (int i = 0; i < 10; ++i) points.push_back({i, i * 1.0});
  const std::string s = "s";
  const SensorSpanDouble group{&s, points.data(), points.size()};
  {
    WalWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(AppendPoint(writer, "s", -1, 0.5).ok());
    ASSERT_TRUE(writer.AppendBatch(&group, 1).ok());
    ASSERT_TRUE(writer.AppendBatch(&group, 1).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 7);  // tear the last batch frame
  std::vector<WalRecord> records;
  bool torn = false;
  ASSERT_TRUE(ReadWal(path, &records, &torn).ok());
  EXPECT_TRUE(torn);
  // The whole torn batch is dropped; the intact frames before it survive.
  ASSERT_EQ(records.size(), 11u);
  EXPECT_EQ(records[0].t, -1);
  EXPECT_EQ(records.back().t, 9);
}

double FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

uint64_t ToBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST_F(WalTest, BatchSegmentBytesMatchGolden) {
  // Pins the segment bytes AppendBatch writes and the records ReadWal
  // returns for them: multi-group batches (one group empty), NaN payloads,
  // -0.0 and +-inf values, the Timestamp limits, a one-point batch, and an
  // append after close + reopen. Any change to the WAL point layout moves
  // the digest.
  const std::string path = Path("wal-golden.log");
  const std::string a = "alpha", b = "b", c = "gamma.sensor";
  const double qnan = FromBits(0x7ff8000000000000ull);
  const double payload_nan = FromBits(0xfff0000000000badull);
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<TvPairDouble> pa = {
      {1, 1.5}, {2, qnan}, {3, -0.0}, {-4, inf}, {5, payload_nan}};
  const std::vector<TvPairDouble> pc = {
      {INT64_MIN, -inf}, {INT64_MAX, 0.0}, {0, 3.0e-310}};
  const std::vector<TvPairDouble> pb = {{7, -2.25}};
  {
    WalWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    const SensorSpanDouble groups[] = {
        {&a, pa.data(), pa.size()},
        {&b, nullptr, 0},
        {&c, pc.data(), pc.size()},
    };
    ASSERT_TRUE(writer.AppendBatch(groups, 3).ok());
    ASSERT_TRUE(AppendPoint(writer, "one", -1, -0.0).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  {
    WalWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    const SensorSpanDouble groups[] = {
        {&b, pb.data(), pb.size()},
        {&a, pa.data(), 2},
    };
    ASSERT_TRUE(writer.AppendBatch(groups, 2).ok());
    ASSERT_TRUE(writer.Close().ok());
  }

  EXPECT_EQ(std::filesystem::file_size(path), 263u);
  const uint64_t digest = bench::FnvFile(path);
  EXPECT_EQ(digest, 0x8ee20b91fe7ea386ull) << "actual 0x" << std::hex << digest;

  struct Expected {
    const char* sensor;
    Timestamp t;
    uint64_t v_bits;
  };
  const Expected want[] = {
      {"alpha", 1, ToBits(1.5)},
      {"alpha", 2, 0x7ff8000000000000ull},
      {"alpha", 3, 0x8000000000000000ull},
      {"alpha", -4, 0x7ff0000000000000ull},
      {"alpha", 5, 0xfff0000000000badull},
      {"gamma.sensor", INT64_MIN, 0xfff0000000000000ull},
      {"gamma.sensor", INT64_MAX, 0x0ull},
      {"gamma.sensor", 0, ToBits(3.0e-310)},
      {"one", -1, 0x8000000000000000ull},
      {"b", 7, ToBits(-2.25)},
      {"alpha", 1, ToBits(1.5)},
      {"alpha", 2, 0x7ff8000000000000ull},
  };
  std::vector<WalRecord> records;
  bool torn = true;
  ASSERT_TRUE(ReadWal(path, &records, &torn).ok());
  EXPECT_FALSE(torn);
  ASSERT_EQ(records.size(), std::size(want));
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].sensor, want[i].sensor) << "record " << i;
    EXPECT_EQ(records[i].t, want[i].t) << "record " << i;
    EXPECT_EQ(ToBits(records[i].v), want[i].v_bits) << "record " << i;
  }
}

/// Appends one sealed frame (fixed32 size, fixed32 CRC, payload).
void SealFrame(const ByteBuffer& payload, ByteBuffer* segment) {
  segment->PutFixed32(static_cast<uint32_t>(payload.size()));
  segment->PutFixed32(Crc32(payload.data().data(), payload.size()));
  segment->Append(payload);
}

// Writes one hand-built frame: fixed32 size + fixed32 CRC + payload.
void WriteFrame(std::ofstream& out, const ByteBuffer& payload) {
  ByteBuffer frame;
  SealFrame(payload, &frame);
  out.write(reinterpret_cast<const char*>(frame.data().data()),
            static_cast<std::streamsize>(frame.size()));
}

// Point body shared by legacy frames and v2 point records: lp-sensor +
// fixed64 time + fixed64 value-bits.
void PutPointBody(ByteBuffer* payload, const std::string& sensor, Timestamp t,
                  double v) {
  payload->PutLengthPrefixedString(sensor);
  payload->PutFixed64(static_cast<uint64_t>(t));
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  payload->PutFixed64(bits);
}

// Builds one legacy (pre-versioning) frame: no type byte, bare point body.
void AppendLegacyFrame(std::ofstream& out, const std::string& sensor,
                       Timestamp t, double v) {
  ByteBuffer payload;
  PutPointBody(&payload, sensor, t, v);
  WriteFrame(out, payload);
}

// Builds one v2 point record (type byte 1 + point body). The writer no
// longer emits these, but segments from before the write paths were
// unified hold them, so replay must keep decoding them.
void AppendV2PointFrame(std::ofstream& out, const std::string& sensor,
                        Timestamp t, double v) {
  ByteBuffer payload;
  payload.PutU8(1);
  PutPointBody(&payload, sensor, t, v);
  WriteFrame(out, payload);
}

void WriteV2Header(std::ofstream& out) {
  const char header[] = {'B', 'W', 'A', 'L', 2};
  out.write(header, sizeof(header));
}

TEST_F(WalTest, LegacyHeaderlessSegmentStillReplays) {
  // A segment written by the pre-versioning engine: frames from byte 0,
  // no magic, no type bytes. The reader must sniff the absent header and
  // fall back to the legacy parse.
  const std::string path = Path("wal-legacy.log");
  {
    std::ofstream out(path, std::ios::binary);
    AppendLegacyFrame(out, "old1", 10, 1.5);
    AppendLegacyFrame(out, "old2", -3, -2.25);
    AppendLegacyFrame(out, "old1", 11, 3.0);
  }
  std::vector<WalRecord> records;
  bool torn = true;
  ASSERT_TRUE(ReadWal(path, &records, &torn).ok());
  EXPECT_FALSE(torn);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].sensor, "old1");
  EXPECT_EQ(records[0].t, 10);
  EXPECT_DOUBLE_EQ(records[0].v, 1.5);
  EXPECT_EQ(records[1].sensor, "old2");
  EXPECT_EQ(records[1].t, -3);
  EXPECT_EQ(records[2].t, 11);
}

TEST_F(WalTest, V2PointRecordsStillReplay) {
  // A v2 segment of point records (type 1) around one batch record, as an
  // engine that still had a per-point writer left it. ReadWal flattens both
  // record types into one stream in write order, and an engine opened on a
  // data dir holding such a segment recovers every point.
  const std::string data_dir = Path("engine_v2_points");
  std::filesystem::create_directories(data_dir);
  const std::string path = data_dir + "/wal-00000000-s00.log";
  {
    std::ofstream out(path, std::ios::binary);
    WriteV2Header(out);
    AppendV2PointFrame(out, "p", 10, 1.5);
    ByteBuffer batch;
    batch.PutU8(2);          // batch record
    batch.PutVarint64(1);    // one group
    batch.PutLengthPrefixedString("p");
    batch.PutVarint64(1);    // one point
    batch.PutFixed64(11);
    uint64_t bits = 0;
    const double v = 2.5;
    std::memcpy(&bits, &v, sizeof(bits));
    batch.PutFixed64(bits);
    WriteFrame(out, batch);
    AppendV2PointFrame(out, "q", -3, -2.25);
    AppendV2PointFrame(out, "p", 12, 3.0);
  }
  std::vector<WalRecord> records;
  bool torn = true;
  ASSERT_TRUE(ReadWal(path, &records, &torn).ok());
  EXPECT_FALSE(torn);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].sensor, "p");
  EXPECT_EQ(records[0].t, 10);
  EXPECT_DOUBLE_EQ(records[0].v, 1.5);
  EXPECT_EQ(records[1].t, 11);
  EXPECT_DOUBLE_EQ(records[1].v, 2.5);
  EXPECT_EQ(records[2].sensor, "q");
  EXPECT_EQ(records[2].t, -3);
  EXPECT_EQ(records[3].t, 12);

  EngineOptions opt;
  opt.data_dir = data_dir;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("p", 0, 100, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[2].v, 3.0);
  ASSERT_TRUE(engine.Query("q", -10, 0, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].v, -2.25);
}

TEST_F(WalTest, UnknownRecordTypeIsCorruption) {
  // A v2 segment with a CRC-valid frame of an unknown type byte: that is
  // real corruption (or a future format), not a torn tail — replay must
  // refuse rather than silently skip.
  const std::string path = Path("wal-unknown-type.log");
  {
    std::ofstream out(path, std::ios::binary);
    WriteV2Header(out);
    ByteBuffer payload;
    payload.PutU8(99);
    WriteFrame(out, payload);
  }
  std::vector<WalRecord> records;
  EXPECT_TRUE(ReadWal(path, &records, nullptr).IsCorruption());
}

TEST_F(WalTest, MissingFileIsIOError) {
  std::vector<WalRecord> records;
  EXPECT_TRUE(ReadWal(Path("nope.log"), &records, nullptr).IsIOError());
}

// --- seeded mutation oracle: ReadWal vs a per-field reference ------------------

// The segment walk and payload parser as they stood before point runs were
// decoded in bulk: one GetFixed64 pair per point. They define the replay
// contract for damaged segments: the same status class as ReadWal, the
// same torn flag, and on OK the same records bit for bit.
namespace reference {

/// Where the mutation rounds aim: every frame's payload span, and the
/// segment offsets of each group-count, sensor-length and point-count
/// varint.
struct Layout {
  std::vector<std::pair<size_t, size_t>> frames;  // payload offset, size
  std::vector<size_t> varints;
};

bool ParsePointBody(ByteReader* body, size_t base, WalRecord* record,
                    Layout* layout) {
  if (layout != nullptr) layout->varints.push_back(base + body->position());
  uint64_t t_bits = 0, v_bits = 0;
  if (!body->GetLengthPrefixedString(&record->sensor).ok() ||
      !body->GetFixed64(&t_bits).ok() || !body->GetFixed64(&v_bits).ok()) {
    return false;
  }
  record->t = static_cast<Timestamp>(t_bits);
  std::memcpy(&record->v, &v_bits, sizeof(record->v));
  return true;
}

Status ParseWalPayloadV2(const uint8_t* payload, size_t size, size_t base,
                         std::vector<WalRecord>* records, Layout* layout) {
  ByteReader body(payload, size);
  auto mark = [&] {
    if (layout != nullptr) layout->varints.push_back(base + body.position());
  };
  uint8_t type = 0;
  if (!body.GetU8(&type).ok()) {
    return Status::Corruption("WAL payload malformed");
  }
  if (type == 1) {
    WalRecord record;
    if (!ParsePointBody(&body, base, &record, layout)) {
      return Status::Corruption("WAL payload malformed");
    }
    records->push_back(std::move(record));
    return Status::OK();
  }
  if (type != 2) {
    return Status::Corruption("WAL record type unknown");
  }
  mark();
  uint64_t group_count = 0;
  if (!body.GetVarint64(&group_count).ok()) {
    return Status::Corruption("WAL batch malformed");
  }
  for (uint64_t g = 0; g < group_count; ++g) {
    std::string sensor;
    uint64_t count = 0;
    mark();
    if (!body.GetLengthPrefixedString(&sensor).ok()) {
      return Status::Corruption("WAL batch malformed");
    }
    mark();
    if (!body.GetVarint64(&count).ok()) {
      return Status::Corruption("WAL batch malformed");
    }
    for (uint64_t i = 0; i < count; ++i) {
      WalRecord record;
      record.sensor = sensor;
      uint64_t t_bits = 0, v_bits = 0;
      if (!body.GetFixed64(&t_bits).ok() || !body.GetFixed64(&v_bits).ok()) {
        return Status::Corruption("WAL batch malformed");
      }
      record.t = static_cast<Timestamp>(t_bits);
      std::memcpy(&record.v, &v_bits, sizeof(record.v));
      records->push_back(std::move(record));
    }
  }
  return Status::OK();
}

Status ReadSegment(const std::vector<uint8_t>& data,
                   std::vector<WalRecord>* records, bool* torn,
                   Layout* layout = nullptr) {
  records->clear();
  *torn = false;
  const bool v2 = data.size() >= 5 &&
                  std::memcmp(data.data(), "BWAL", 4) == 0 && data[4] == 2;
  const size_t header = v2 ? 5 : 0;
  ByteReader reader(data.data() + header, data.size() - header);
  while (!reader.AtEnd()) {
    uint32_t payload_size = 0;
    uint32_t expected_crc = 0;
    if (!reader.GetFixed32(&payload_size).ok() ||
        !reader.GetFixed32(&expected_crc).ok() ||
        payload_size > reader.remaining()) {
      *torn = true;
      break;
    }
    const size_t at = header + reader.position();
    const uint8_t* payload = data.data() + at;
    if (Crc32(payload, payload_size) != expected_crc) {
      *torn = true;
      break;
    }
    if (layout != nullptr) layout->frames.emplace_back(at, payload_size);
    if (v2) {
      RETURN_NOT_OK(
          ParseWalPayloadV2(payload, payload_size, at, records, layout));
    } else {
      ByteReader body(payload, payload_size);
      WalRecord record;
      if (!ParsePointBody(&body, at, &record, layout)) {
        return Status::Corruption("WAL payload malformed");
      }
      records->push_back(std::move(record));
    }
    RETURN_NOT_OK(reader.Skip(payload_size));
  }
  return Status::OK();
}

}  // namespace reference

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

std::string RandomSensor(Rng& rng) {
  // Mostly short names; now and then one past 127 bytes, whose length
  // prefix takes two varint bytes.
  const size_t len = rng.NextBelow(8) == 0 ? 120 + rng.NextBelow(20)
                                           : 1 + rng.NextBelow(12);
  std::string s(len, 'a');
  for (char& ch : s) ch = static_cast<char>('a' + rng.NextBelow(26));
  return s;
}

TvPairDouble RandomPoint(Rng& rng) {
  // Any bit pattern: NaN payloads, infinities and subnormals included.
  return {static_cast<Timestamp>(rng.NextU64()), FromBits(rng.NextU64())};
}

enum class SegmentKind { kV2Batch, kV2Point, kLegacy };

/// One seeded intact segment of `kind`. Batch segments come from WalWriter
/// itself; point and legacy segments are hand-built, as the writer no
/// longer emits them.
std::vector<uint8_t> BuildSegment(SegmentKind kind, Rng& rng,
                                  const std::string& scratch_path) {
  if (kind == SegmentKind::kV2Batch) {
    std::filesystem::remove(scratch_path);
    WalWriter writer(scratch_path);
    EXPECT_TRUE(writer.Open().ok());
    const size_t batches = 1 + rng.NextBelow(4);
    for (size_t b = 0; b < batches; ++b) {
      const size_t group_count = 1 + rng.NextBelow(4);
      std::vector<std::string> sensors(group_count);
      std::vector<std::vector<TvPairDouble>> points(group_count);
      std::vector<SensorSpanDouble> groups(group_count);
      for (size_t g = 0; g < group_count; ++g) {
        sensors[g] = RandomSensor(rng);
        points[g].resize(rng.NextBelow(5) == 0 ? 0 : 1 + rng.NextBelow(40));
        for (TvPairDouble& p : points[g]) p = RandomPoint(rng);
        groups[g] = {&sensors[g], points[g].data(), points[g].size()};
      }
      EXPECT_TRUE(writer.AppendBatch(groups.data(), group_count).ok());
    }
    EXPECT_TRUE(writer.Close().ok());
    return FileBytes(scratch_path);
  }
  ByteBuffer segment;
  if (kind == SegmentKind::kV2Point) {
    const uint8_t header[] = {'B', 'W', 'A', 'L', 2};
    segment.PutBytes(header, sizeof(header));
  }
  const size_t frames = 1 + rng.NextBelow(12);
  for (size_t f = 0; f < frames; ++f) {
    ByteBuffer payload;
    if (kind == SegmentKind::kV2Point) payload.PutU8(1);
    const TvPairDouble p = RandomPoint(rng);
    PutPointBody(&payload, RandomSensor(rng), p.t, p.v);
    SealFrame(payload, &segment);
  }
  return segment.data();
}

/// Damages an intact segment: either flips 1-4 payload bytes (half of
/// them on the count and length varints) and re-seals every frame CRC, so
/// the parser sees the damage rather than the CRC; or truncates it.
std::vector<uint8_t> Mutate(const std::vector<uint8_t>& intact, Rng& rng) {
  std::vector<uint8_t> bytes = intact;
  std::vector<WalRecord> records;
  bool torn = false;
  reference::Layout layout;
  EXPECT_TRUE(reference::ReadSegment(intact, &records, &torn, &layout).ok());
  if (rng.NextBelow(4) == 0 || layout.frames.empty()) {
    bytes.resize(rng.NextBelow(bytes.size()));
    return bytes;
  }
  const size_t flips = 1 + rng.NextBelow(4);
  for (size_t i = 0; i < flips; ++i) {
    size_t pos;
    if (!layout.varints.empty() && rng.NextBelow(2) == 0) {
      pos = layout.varints[rng.NextBelow(layout.varints.size())];
    } else {
      const auto& [at, size] =
          layout.frames[rng.NextBelow(layout.frames.size())];
      pos = at + rng.NextBelow(size);
    }
    bytes[pos] ^= rng.NextBelow(2) == 0
                      ? static_cast<uint8_t>(1u << rng.NextBelow(8))
                      : static_cast<uint8_t>(1 + rng.NextBelow(255));
  }
  for (const auto& [at, size] : layout.frames) {
    const uint32_t crc = Crc32(bytes.data() + at, size);
    for (int k = 0; k < 4; ++k) bytes[at - 4 + k] = (crc >> (8 * k)) & 0xff;
  }
  return bytes;
}

void ExpectSameRecords(const std::vector<WalRecord>& want,
                       const std::vector<WalRecord>& got,
                       const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].sensor, got[i].sensor) << what << " record " << i;
    ASSERT_EQ(want[i].t, got[i].t) << what << " record " << i;
    ASSERT_EQ(ToBits(want[i].v), ToBits(got[i].v)) << what << " record " << i;
  }
}

/// Drains a single-segment ship directory through WalTailer::Poll.
Status TailAll(const std::string& dir, std::vector<WalRecord>* records) {
  records->clear();
  WalTailer tailer(dir, /*shard_count=*/1);
  ShipChunk chunk;
  bool produced = true;
  while (produced) {
    RETURN_NOT_OK(tailer.Poll(&chunk, &produced));
    if (produced) {
      records->insert(records->end(), chunk.records.begin(),
                      chunk.records.end());
    }
  }
  return Status::OK();
}

TEST_F(WalTest, MutatedSegmentsReplayLikeReference) {
  const std::string path = Path("wal-mutated.log");
  const std::string scratch = Path("wal-intact.log");
  const std::string ship_dir = Path("ship");
  std::filesystem::create_directories(ship_dir);
  const std::string ship_path = ship_dir + "/" + ShipSegmentName(0, 0);
  size_t ok_rounds = 0, corrupt_rounds = 0, tailed = 0;
  for (SegmentKind kind :
       {SegmentKind::kV2Batch, SegmentKind::kV2Point, SegmentKind::kLegacy}) {
    Rng rng(0x3a1 + static_cast<uint64_t>(kind));
    for (int round = 0; round < 400; ++round) {
      const std::string what = "kind " +
                               std::to_string(static_cast<int>(kind)) +
                               " round " + std::to_string(round);
      const std::vector<uint8_t> bytes =
          Mutate(BuildSegment(kind, rng, scratch), rng);
      std::vector<WalRecord> want, got;
      bool want_torn = false, got_torn = false;
      const Status ref = reference::ReadSegment(bytes, &want, &want_torn);
      WriteFileBytes(path, bytes);
      const Status st = ReadWal(path, &got, &got_torn);
      ASSERT_EQ(ref.code(), st.code())
          << what << ": reference " << ref.ToString() << ", got "
          << st.ToString();
      (ref.ok() ? ok_rounds : corrupt_rounds)++;
      if (ref.ok()) {
        ASSERT_EQ(want_torn, got_torn) << what;
        ExpectSameRecords(want, got, what);
        if (HasFatalFailure()) return;
      }
      // The tailer reads v2 segments only; a third of those rounds also
      // go through it as an open ship segment, where a torn tail means
      // "wait" and the records before it ship.
      if (kind == SegmentKind::kLegacy || round % 3 != 0) continue;
      ++tailed;
      WriteFileBytes(ship_path, bytes);
      std::vector<WalRecord> shipped;
      const Status tail = TailAll(ship_dir, &shipped);
      ASSERT_EQ(ref.code(), tail.code())
          << what << ": reference " << ref.ToString() << ", tailer "
          << tail.ToString();
      if (ref.ok()) ExpectSameRecords(want, shipped, what + " (tailer)");
      if (HasFatalFailure()) return;
    }
  }
  // Both outcomes occur often enough for the agreement to mean something.
  EXPECT_GT(ok_rounds, 200u);
  EXPECT_GT(corrupt_rounds, 100u);
  EXPECT_GT(tailed, 200u);
}

// --- fsync durability ----------------------------------------------------------

TEST_F(WalTest, FsyncModeAppendsAndReplays) {
  const std::string path = Path("wal-fsync.log");
  WalWriter writer(path, /*fsync_on_sync=*/true);
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(AppendPoint(writer, "s", 1, 1.5).ok());
  ASSERT_TRUE(writer.Sync().ok());
  // After a device-level Sync the record is visible to an independent
  // reader while the writer is still open (fflush + fsync completed).
  std::vector<WalRecord> records;
  bool torn = true;
  ASSERT_TRUE(ReadWal(path, &records, &torn).ok());
  EXPECT_FALSE(torn);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].t, 1);
  ASSERT_TRUE(AppendPoint(writer, "s", 2, 2.5).ok());
  ASSERT_TRUE(writer.Sync().ok());
  ASSERT_TRUE(writer.Close().ok());
  ASSERT_TRUE(ReadWal(path, &records, &torn).ok());
  EXPECT_EQ(records.size(), 2u);
}

TEST_F(WalTest, SyncOnUnopenedWriterFails) {
  WalWriter writer(Path("never-opened.log"), /*fsync_on_sync=*/true);
  EXPECT_TRUE(writer.Sync().IsInvalidArgument());
}

TEST_F(WalTest, EngineWalFsyncStillRecovers) {
  // wal_fsync + sync_wal_every_write = per-write device durability; the
  // recovery contract must be unchanged from the page-cache default.
  const std::string data_dir = Path("engine_fsync");
  {
    EngineOptions opt;
    opt.data_dir = data_dir;
    opt.wal_fsync = true;
    opt.sync_wal_every_write = true;
    opt.memtable_flush_threshold = 1'000'000;  // never flush
    StorageEngine engine(opt);
    ASSERT_TRUE(engine.Open().ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(engine.Write("s", i, i * 2.0).ok());
    }
  }
  EngineOptions opt;
  opt.data_dir = data_dir;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("s", 0, 1'000, &out).ok());
  ASSERT_EQ(out.size(), 200u);
  EXPECT_EQ(out.back().t, 199);
  EXPECT_DOUBLE_EQ(out.back().v, 398.0);
}

TEST_F(WalTest, FlushUnderWalFsyncDropsSegmentAndSurvivesReopen) {
  // Under wal_fsync a flush fsyncs the sealed file and the directory
  // entry BEFORE deleting the WAL segment that covered it; the visible
  // contract is unchanged — segment gone after flush, data queryable
  // across reopen.
  const std::string data_dir = Path("engine_fsync_flush");
  {
    EngineOptions opt;
    opt.data_dir = data_dir;
    opt.wal_fsync = true;
    opt.memtable_flush_threshold = 1'000'000;
    StorageEngine engine(opt);
    ASSERT_TRUE(engine.Open().ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(engine.Write("s", i, i * 2.0).ok());
    }
    ASSERT_TRUE(engine.FlushAll().ok());
    EXPECT_EQ(engine.sealed_file_count(), 1u);
  }
  size_t wal_segments = 0, sealed = 0;
  for (const auto& e : std::filesystem::directory_iterator(data_dir)) {
    const std::string name = e.path().filename().string();
    if (name.find("wal") != std::string::npos) ++wal_segments;
    if (e.path().extension() == ".bstf") ++sealed;
  }
  EXPECT_EQ(wal_segments, 0u);
  EXPECT_EQ(sealed, 1u);

  EngineOptions opt;
  opt.data_dir = data_dir;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("s", 0, 1'000, &out).ok());
  ASSERT_EQ(out.size(), 200u);
  EXPECT_DOUBLE_EQ(out.back().v, 398.0);
}

// --- engine crash recovery -----------------------------------------------------

TEST_F(WalTest, EngineRecoversUnflushedPoints) {
  const std::string data_dir = Path("engine");
  {
    EngineOptions opt;
    opt.data_dir = data_dir;
    opt.sorter = SorterId::kBackward;
    opt.memtable_flush_threshold = 1'000'000;  // never flush
    StorageEngine engine(opt);
    ASSERT_TRUE(engine.Open().ok());
    for (int i = 0; i < 5000; ++i) {
      ASSERT_TRUE(engine.Write("s", i, i * 2.0).ok());
    }
    // Engine destroyed without FlushAll: simulated crash. (The WAL stream
    // is buffered but closed by the destructor; torn-tail behavior is
    // covered separately above.)
  }
  {
    EngineOptions opt;
    opt.data_dir = data_dir;
    StorageEngine engine(opt);
    ASSERT_TRUE(engine.Open().ok());
    std::vector<TvPairDouble> out;
    ASSERT_TRUE(engine.Query("s", 0, 10'000, &out).ok());
    ASSERT_EQ(out.size(), 5000u);
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i].t, static_cast<Timestamp>(i));
      ASSERT_DOUBLE_EQ(out[i].v, i * 2.0);
    }
  }
}

TEST_F(WalTest, EngineRecoversBatchedWrites) {
  // Every ingest call writes one group-commit record per target memtable,
  // whether it carries one point or many; recovery must replay them in
  // write order when batched and one-point calls interleave on one sensor.
  const std::string data_dir = Path("engine_batch");
  {
    EngineOptions opt;
    opt.data_dir = data_dir;
    opt.memtable_flush_threshold = 1'000'000;  // never flush
    StorageEngine engine(opt);
    ASSERT_TRUE(engine.Open().ok());
    std::vector<TvPairDouble> batch;
    for (int i = 0; i < 1000; ++i) {
      batch.push_back({i, i * 0.5});
    }
    size_t applied = 0;
    ASSERT_TRUE(engine.WriteBatch("bs", batch, &applied).ok());
    EXPECT_EQ(applied, batch.size());
    ASSERT_TRUE(engine.Write("bs", 2000, 7.0).ok());
    const std::string m0 = "m0", m1 = "m1";
    const TvPairDouble p0[] = {{1, 1.0}, {2, 2.0}};
    const TvPairDouble p1[] = {{3, 3.0}};
    const SensorSpanDouble multi[] = {{&m0, p0, 2}, {&m1, p1, 1}};
    ASSERT_TRUE(engine.WriteMulti(multi, 2).ok());
    // Destroyed without FlushAll: simulated crash.
  }
  EngineOptions opt;
  opt.data_dir = data_dir;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("bs", 0, 10'000, &out).ok());
  ASSERT_EQ(out.size(), 1001u);
  EXPECT_EQ(out.back().t, 2000);
  EXPECT_DOUBLE_EQ(out.back().v, 7.0);
  ASSERT_TRUE(engine.Query("m0", 0, 10, &out).ok());
  EXPECT_EQ(out.size(), 2u);
  ASSERT_TRUE(engine.Query("m1", 0, 10, &out).ok());
  EXPECT_EQ(out.size(), 1u);
  TvPairDouble last{};
  ASSERT_TRUE(engine.GetLatest("bs", &last).ok());
  EXPECT_EQ(last.t, 2000);
}

TEST_F(WalTest, EngineRecoversAcrossFlushedAndUnflushedData) {
  const std::string data_dir = Path("engine2");
  Rng rng(5);
  AbsNormalDelay delay(1, 10);
  const auto series = GenerateArrivalOrderedSeries<double>(25'000, delay, rng);
  {
    EngineOptions opt;
    opt.data_dir = data_dir;
    opt.memtable_flush_threshold = 10'000;  // two flushes + 5k in memory
    opt.async_flush = false;
    StorageEngine engine(opt);
    ASSERT_TRUE(engine.Open().ok());
    for (const auto& p : series) {
      ASSERT_TRUE(engine.Write("s", p.t, p.v).ok());
    }
  }
  {
    EngineOptions opt;
    opt.data_dir = data_dir;
    StorageEngine engine(opt);
    ASSERT_TRUE(engine.Open().ok());
    std::vector<TvPairDouble> out;
    ASSERT_TRUE(engine.Query("s", 0, 25'000, &out).ok());
    ASSERT_EQ(out.size(), 25'000u);
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i].t, static_cast<Timestamp>(i));
    }
    // Recovered data must flush normally afterwards.
    ASSERT_TRUE(engine.FlushAll().ok());
    ASSERT_TRUE(engine.Query("s", 0, 25'000, &out).ok());
    EXPECT_EQ(out.size(), 25'000u);
  }
}

TEST_F(WalTest, WalSegmentsDeletedAfterFlush) {
  const std::string data_dir = Path("engine3");
  EngineOptions opt;
  opt.data_dir = data_dir;
  opt.memtable_flush_threshold = 1'000;
  opt.async_flush = false;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  for (int i = 0; i < 5'000; ++i) {
    ASSERT_TRUE(engine.Write("s", i, 1.0).ok());
  }
  ASSERT_TRUE(engine.FlushAll().ok());
  // Only the two live (working) segments may remain, both empty of any
  // unflushed data.
  size_t wal_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(data_dir)) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0) ++wal_files;
  }
  EXPECT_LE(wal_files, 2u);
}

TEST_F(WalTest, DisabledWalWritesNoSegments) {
  const std::string data_dir = Path("engine4");
  EngineOptions opt;
  opt.data_dir = data_dir;
  opt.enable_wal = false;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine.Write("s", i, 1.0).ok());
  }
  for (const auto& entry : std::filesystem::directory_iterator(data_dir)) {
    EXPECT_NE(entry.path().filename().string().rfind("wal-", 0), 0u);
  }
}

// --- compaction -----------------------------------------------------------------

TEST_F(WalTest, CompactionMergesFilesAndPreservesQueries) {
  const std::string data_dir = Path("engine5");
  EngineOptions opt;
  opt.data_dir = data_dir;
  opt.memtable_flush_threshold = 5'000;
  opt.async_flush = false;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  Rng rng(6);
  AbsNormalDelay delay(1, 20);
  const auto series = GenerateArrivalOrderedSeries<double>(30'000, delay, rng);
  for (const auto& p : series) {
    ASSERT_TRUE(engine.Write("s", p.t, p.v).ok());
  }
  ASSERT_TRUE(engine.FlushAll().ok());
  const size_t before = engine.sealed_file_count();
  ASSERT_GE(before, 6u);

  std::vector<TvPairDouble> expect;
  ASSERT_TRUE(engine.Query("s", 0, 30'000, &expect).ok());

  ASSERT_TRUE(engine.Compact().ok());
  EXPECT_EQ(engine.sealed_file_count(), 1u);

  std::vector<TvPairDouble> after;
  ASSERT_TRUE(engine.Query("s", 0, 30'000, &after).ok());
  ASSERT_EQ(after.size(), expect.size());
  for (size_t i = 0; i < after.size(); ++i) {
    ASSERT_EQ(after[i].t, expect[i].t);
    ASSERT_DOUBLE_EQ(after[i].v, expect[i].v);
  }
  // Old files physically gone.
  size_t bstf = 0;
  for (const auto& entry : std::filesystem::directory_iterator(data_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 5 && name.substr(name.size() - 5) == ".bstf") ++bstf;
  }
  EXPECT_EQ(bstf, 1u);
}

TEST_F(WalTest, CompactionOnFewFilesIsNoOp) {
  const std::string data_dir = Path("engine6");
  EngineOptions opt;
  opt.data_dir = data_dir;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  ASSERT_TRUE(engine.Compact().ok());
  EXPECT_EQ(engine.sealed_file_count(), 0u);
}

}  // namespace
}  // namespace backsort
