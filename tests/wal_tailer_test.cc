// Replication ship-log tailer tests: the WalTailer must treat a torn tail
// mid-ship as "wait" in the open segment and "skip" in a closed one,
// follow segment rotation while tailing, resume from a persisted cursor
// exactly (no skip, no duplicate), and — because re-shipping after a lost
// ack is by design — applying the same shipped chunk twice must be
// idempotent under the engine's per-sensor LWW.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "encoding/bytes.h"
#include "engine/storage_engine.h"
#include "engine/wal.h"
#include "engine/wal_tailer.h"

namespace backsort {
namespace {

class WalTailerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("wal_tailer_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string SegmentPath(size_t shard, size_t seq) {
    return (dir_ / ShipSegmentName(shard, seq)).string();
  }

  /// Appends `count` one-point group-commit frames for `sensor` starting
  /// at t0.
  void WriteSegment(size_t shard, size_t seq, const std::string& sensor,
                    Timestamp t0, size_t count) {
    WalWriter writer(SegmentPath(shard, seq));
    ASSERT_TRUE(writer.Open().ok());
    for (size_t i = 0; i < count; ++i) {
      const TvPairDouble point{
          t0 + static_cast<Timestamp>(i),
          static_cast<double>(t0) + static_cast<double>(i)};
      const SensorSpanDouble span{&sensor, &point, 1};
      ASSERT_TRUE(writer.AppendBatch(&span, 1).ok());
    }
    ASSERT_TRUE(writer.Sync().ok());
  }

  /// Appends a torn frame: a header declaring `declared` payload bytes
  /// followed by only `written` bytes — what a crash or an in-flight
  /// flush leaves at the tail.
  void AppendTornFrame(size_t shard, size_t seq, uint32_t declared,
                       size_t written) {
    std::FILE* f = std::fopen(SegmentPath(shard, seq).c_str(), "ab");
    ASSERT_NE(f, nullptr);
    ByteBuffer header;
    header.PutFixed32(declared);
    header.PutFixed32(0xDEADBEEFu);  // CRC of bytes that never landed
    ASSERT_EQ(std::fwrite(header.data().data(), 1, header.size(), f),
              header.size());
    const std::vector<uint8_t> partial(written, 0x5A);
    ASSERT_EQ(std::fwrite(partial.data(), 1, partial.size(), f),
              partial.size());
    std::fclose(f);
  }

  std::filesystem::path dir_;
};

TEST(ShipSegmentNames, RoundTripAndRejection) {
  EXPECT_EQ(ShipSegmentName(3, 17), "ship-s03-00000017.log");
  size_t shard = 0, seq = 0;
  EXPECT_TRUE(ParseShipSegmentName(ShipSegmentName(12, 345), &shard, &seq));
  EXPECT_EQ(shard, 12u);
  EXPECT_EQ(seq, 345u);
  EXPECT_FALSE(ParseShipSegmentName("wal-000001.log", &shard, &seq));
  EXPECT_FALSE(ParseShipSegmentName("ship-s00-x.log", &shard, &seq));
  EXPECT_FALSE(ParseShipSegmentName("ship-s00-00000001.tmp", &shard, &seq));
}

TEST(ShipCursorCodec, RoundTrip) {
  ShipFrontier frontier;
  frontier.cursors = {{0, 0}, {7, 123456}, {1ull << 40, 1ull << 33}};
  ByteBuffer buf;
  EncodeShipFrontier(frontier, &buf);
  ByteReader reader(buf.data().data(), buf.size());
  ShipFrontier decoded;
  ASSERT_TRUE(DecodeShipFrontier(&reader, &decoded).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(decoded, frontier);
}

TEST_F(WalTailerTest, TailsRecordsInOrder) {
  WriteSegment(/*shard=*/0, /*seq=*/0, "s0", 100, 5);
  WalTailer tailer(dir_.string(), /*shard_count=*/1);
  ShipChunk chunk;
  bool produced = false;
  ASSERT_TRUE(tailer.Poll(&chunk, &produced).ok());
  ASSERT_TRUE(produced);
  ASSERT_EQ(chunk.records.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(chunk.records[i].sensor, "s0");
    EXPECT_EQ(chunk.records[i].t, static_cast<Timestamp>(100 + i));
  }
  // Caught up: nothing further.
  ASSERT_TRUE(tailer.Poll(&chunk, &produced).ok());
  EXPECT_FALSE(produced);
  EXPECT_EQ(tailer.BacklogBytes(), 0u);
}

TEST_F(WalTailerTest, TornTailInOpenSegmentWaitsThenResumes) {
  WriteSegment(0, 0, "s0", 0, 3);
  AppendTornFrame(0, 0, /*declared=*/64, /*written=*/10);

  WalTailer tailer(dir_.string(), 1);
  ShipChunk chunk;
  bool produced = false;
  // The complete frames ship; the torn tail does not.
  ASSERT_TRUE(tailer.Poll(&chunk, &produced).ok());
  ASSERT_TRUE(produced);
  EXPECT_EQ(chunk.records.size(), 3u);
  // The open segment's torn tail means "a flush may still be in flight":
  // wait (produced = false), never an error, and the cursor must not move.
  const ShipCursor waiting = tailer.frontier().cursors[0];
  ASSERT_TRUE(tailer.Poll(&chunk, &produced).ok());
  EXPECT_FALSE(produced);
  EXPECT_EQ(tailer.frontier().cursors[0], waiting);
  ASSERT_TRUE(tailer.Poll(&chunk, &produced).ok());
  EXPECT_FALSE(produced);
}

TEST_F(WalTailerTest, TornTailInClosedSegmentIsSkipped) {
  WriteSegment(0, 0, "s0", 0, 2);
  AppendTornFrame(0, 0, 64, 10);
  // A higher-seq segment exists, so segment 0 is closed: its torn tail is
  // a crash artifact whose records recovery re-shipped — skip, don't wait.
  WriteSegment(0, 1, "s0", 50, 2);

  WalTailer tailer(dir_.string(), 1);
  ShipChunk chunk;
  bool produced = false;
  ASSERT_TRUE(tailer.Poll(&chunk, &produced).ok());
  ASSERT_TRUE(produced);
  EXPECT_EQ(chunk.records.size(), 2u);
  EXPECT_EQ(chunk.records[0].t, 0);

  ASSERT_TRUE(tailer.Poll(&chunk, &produced).ok());
  ASSERT_TRUE(produced);
  ASSERT_EQ(chunk.records.size(), 2u);
  EXPECT_EQ(chunk.records[0].t, 50);
  EXPECT_EQ(chunk.end.segment, 1u);

  ASSERT_TRUE(tailer.Poll(&chunk, &produced).ok());
  EXPECT_FALSE(produced);
}

TEST_F(WalTailerTest, FollowsRotationWhileTailing) {
  WriteSegment(0, 0, "s0", 0, 4);
  WalTailer tailer(dir_.string(), 1);
  ShipChunk chunk;
  bool produced = false;
  ASSERT_TRUE(tailer.Poll(&chunk, &produced).ok());
  ASSERT_TRUE(produced);
  EXPECT_EQ(chunk.records.size(), 4u);

  // The writer rotates mid-tail; the next poll must cross into the new
  // segment on its own.
  WriteSegment(0, 1, "s0", 1000, 3);
  ASSERT_TRUE(tailer.Poll(&chunk, &produced).ok());
  ASSERT_TRUE(produced);
  ASSERT_EQ(chunk.records.size(), 3u);
  EXPECT_EQ(chunk.records.front().t, 1000);
  EXPECT_EQ(tailer.frontier().cursors[0].segment, 1u);
}

TEST_F(WalTailerTest, ResumeFromPersistedCursorIsExact) {
  WriteSegment(0, 0, "s0", 0, 10);
  WalTailer::Options one_frame;
  one_frame.max_records = 1;  // one frame per poll: 10 distinct cursors
  WalTailer first(dir_.string(), 1, one_frame);

  ShipChunk chunk;
  bool produced = false;
  std::vector<ShipFrontier> frontiers;  // frontier after k+1 frames
  for (size_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(first.Poll(&chunk, &produced).ok());
    ASSERT_TRUE(produced);
    ASSERT_EQ(chunk.records.size(), 1u);
    EXPECT_EQ(chunk.records[0].t, static_cast<Timestamp>(k));
    frontiers.push_back(first.frontier());
  }

  // Resuming a FRESH tailer from the cursor persisted after frame k must
  // yield frame k+1 first — not k (duplicate) and not k+2 (hole). Round
  // the frontier through its codec, as the real handshake does.
  for (size_t k = 0; k + 1 < 10; ++k) {
    ByteBuffer buf;
    EncodeShipFrontier(frontiers[k], &buf);
    ByteReader reader(buf.data().data(), buf.size());
    ShipFrontier restored;
    ASSERT_TRUE(DecodeShipFrontier(&reader, &restored).ok());

    WalTailer resumed(dir_.string(), 1, one_frame);
    resumed.Seek(restored);
    ASSERT_TRUE(resumed.Poll(&chunk, &produced).ok());
    ASSERT_TRUE(produced);
    ASSERT_EQ(chunk.records.size(), 1u);
    EXPECT_EQ(chunk.records[0].t, static_cast<Timestamp>(k + 1));
  }

  // The final cursor is end-of-log: nothing to ship.
  WalTailer done(dir_.string(), 1, one_frame);
  done.Seek(frontiers.back());
  ASSERT_TRUE(done.Poll(&chunk, &produced).ok());
  EXPECT_FALSE(produced);
}

TEST_F(WalTailerTest, CursorStoreRoundTripAndDamageTolerance) {
  ReplicationCursorStore store(dir_.string(), "node0");
  ShipFrontier missing;
  missing.cursors = {{9, 9}};
  ASSERT_TRUE(store.Load(&missing).ok());
  EXPECT_TRUE(missing.cursors.empty());  // never stored -> empty frontier

  ShipFrontier frontier;
  frontier.cursors = {{2, 777}, {0, 5}};
  ASSERT_TRUE(store.Store(frontier).ok());
  ShipFrontier loaded;
  ASSERT_TRUE(store.Load(&loaded).ok());
  EXPECT_EQ(loaded, frontier);

  // Truncation (torn rename never happens, but a damaged disk read can):
  // loads as empty, which only re-ships — never skips.
  std::FILE* f = std::fopen(store.path().c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputc('B', f);
  std::fclose(f);
  ASSERT_TRUE(store.Load(&loaded).ok());
  EXPECT_TRUE(loaded.cursors.empty());
}

TEST_F(WalTailerTest, EngineShipLogCapturesWritesAndReplayIsLwwIdempotent) {
  // Source engine with the ship log on: every acknowledged write must be
  // readable by the tailer.
  EngineOptions source_opt;
  source_opt.data_dir = (dir_ / "source").string();
  source_opt.replication_log = true;
  source_opt.shard_count = 2;
  StorageEngine source(source_opt);
  ASSERT_TRUE(source.Open().ok());

  const std::string sensors[2] = {"alpha", "beta"};
  std::vector<TvPairDouble> points[2];
  for (size_t s = 0; s < 2; ++s) {
    for (int i = 0; i < 200; ++i) {
      points[s].push_back(
          {static_cast<Timestamp>(i), static_cast<double>(i) + s});
    }
    const SensorSpanDouble span{&sensors[s], points[s].data(),
                                points[s].size()};
    ASSERT_TRUE(source.WriteMulti(&span, 1).ok());
  }

  // Drain the ship log into chunks.
  WalTailer tailer(source_opt.data_dir, source.shard_count());
  std::vector<ShipChunk> chunks;
  for (;;) {
    ShipChunk chunk;
    bool produced = false;
    ASSERT_TRUE(tailer.Poll(&chunk, &produced).ok());
    if (!produced) break;
    chunks.push_back(std::move(chunk));
  }
  size_t total = 0;
  for (const ShipChunk& c : chunks) total += c.records.size();
  EXPECT_EQ(total, 400u);

  // Follower engine: apply every chunk TWICE via the replication path (a
  // lost ack re-ships). WriteReplicated must not re-enter a ship log, and
  // per-sensor LWW must make the duplicate apply invisible.
  EngineOptions follower_opt;
  follower_opt.data_dir = (dir_ / "follower").string();
  follower_opt.replication_log = true;  // like a real cluster member
  follower_opt.shard_count = 2;
  StorageEngine follower(follower_opt);
  ASSERT_TRUE(follower.Open().ok());
  for (int round = 0; round < 2; ++round) {
    for (const ShipChunk& chunk : chunks) {
      // Consecutive same-sensor runs, as the replicator groups them.
      std::vector<std::string> run_sensors;
      std::vector<std::vector<TvPairDouble>> run_points;
      for (const WalRecord& r : chunk.records) {
        if (run_sensors.empty() || run_sensors.back() != r.sensor) {
          run_sensors.push_back(r.sensor);
          run_points.emplace_back();
        }
        run_points.back().push_back({r.t, r.v});
      }
      std::vector<SensorSpanDouble> spans;
      for (size_t g = 0; g < run_sensors.size(); ++g) {
        spans.push_back(SensorSpanDouble{&run_sensors[g],
                                         run_points[g].data(),
                                         run_points[g].size()});
      }
      ASSERT_TRUE(
          follower.WriteReplicated(spans.data(), spans.size()).ok());
    }
  }

  // The follower's replication apply must not have produced ship segments
  // of its own (ring-cycle prevention)...
  size_t follower_ship_segments = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(follower_opt.data_dir)) {
    size_t shard = 0, seq = 0;
    if (ParseShipSegmentName(entry.path().filename().string(), &shard,
                             &seq)) {
      ++follower_ship_segments;
    }
  }
  EXPECT_EQ(follower_ship_segments, 0u);

  // ...and its queryable state must equal the source's exactly, despite
  // the double apply.
  for (size_t s = 0; s < 2; ++s) {
    std::vector<TvPairDouble> from_source, from_follower;
    ASSERT_TRUE(source.Query(sensors[s], 0, 1'000, &from_source).ok());
    ASSERT_TRUE(follower.Query(sensors[s], 0, 1'000, &from_follower).ok());
    ASSERT_EQ(from_source.size(), from_follower.size());
    ASSERT_EQ(from_source.size(), points[s].size());
    for (size_t i = 0; i < from_source.size(); ++i) {
      EXPECT_EQ(from_source[i].t, from_follower[i].t);
      EXPECT_EQ(from_source[i].v, from_follower[i].v);
    }
  }
}

}  // namespace
}  // namespace backsort
