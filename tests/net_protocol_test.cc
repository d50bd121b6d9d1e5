// Wire-protocol robustness: codec round trips, and a live server fed
// malformed bytes — truncated frames, CRC-flipped payloads, oversized
// declared lengths, garbage preambles. Every malformed input must produce
// a clean per-connection failure (connection closed, protocol-error
// counter bumped) and never a crash, a hang, or a partially applied
// request; the server must keep serving well-formed peers afterwards.
// A seeded mutation oracle drives every payload decoder directly.

#include <chrono>
#include <cmath>
#include <cstring>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "benchkit/digest.h"
#include "common/rng.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"

namespace backsort {
namespace {

// --- codec round trips ---------------------------------------------------------

TEST(NetProtocol, FrameRoundTrip) {
  ByteBuffer payload;
  payload.PutLengthPrefixedString("hello");
  ByteBuffer frame;
  EncodeFrame(MsgType::kQuery, /*is_response=*/false, payload, &frame);
  ASSERT_EQ(frame.size(), kFrameHeaderSize + payload.size());

  FrameHeader header;
  ASSERT_TRUE(ParseFrameHeader(frame.data().data(), &header).ok());
  EXPECT_EQ(header.type, MsgType::kQuery);
  EXPECT_FALSE(header.is_response);
  EXPECT_EQ(header.payload_size, payload.size());
  EXPECT_TRUE(CheckPayloadCrc(header, frame.data().data() + kFrameHeaderSize,
                              payload.size())
                  .ok());
}

TEST(NetProtocol, ResponseBitSurvivesRoundTrip) {
  ByteBuffer frame;
  EncodeFrame(MsgType::kPing, /*is_response=*/true, ByteBuffer(), &frame);
  FrameHeader header;
  ASSERT_TRUE(ParseFrameHeader(frame.data().data(), &header).ok());
  EXPECT_EQ(header.type, MsgType::kPing);
  EXPECT_TRUE(header.is_response);
}

TEST(NetProtocol, BadMagicRejected) {
  ByteBuffer frame;
  EncodeFrame(MsgType::kPing, false, ByteBuffer(), &frame);
  std::vector<uint8_t> bytes = frame.data();
  bytes[0] ^= 0xff;
  FrameHeader header;
  EXPECT_TRUE(ParseFrameHeader(bytes.data(), &header).IsCorruption());
}

TEST(NetProtocol, UnknownTypeRejected) {
  ByteBuffer frame;
  EncodeFrame(MsgType::kPing, false, ByteBuffer(), &frame);
  std::vector<uint8_t> bytes = frame.data();
  bytes[4] = 0x7f;  // type byte: not a known request
  FrameHeader header;
  EXPECT_TRUE(ParseFrameHeader(bytes.data(), &header).IsCorruption());
}

TEST(NetProtocol, CrcMismatchDetected) {
  ByteBuffer payload;
  payload.PutFixed64(12345);
  ByteBuffer frame;
  EncodeFrame(MsgType::kWriteBatch, false, payload, &frame);
  std::vector<uint8_t> bytes = frame.data();
  bytes[kFrameHeaderSize] ^= 0x01;  // flip one payload bit
  FrameHeader header;
  ASSERT_TRUE(ParseFrameHeader(bytes.data(), &header).ok());
  EXPECT_TRUE(CheckPayloadCrc(header, bytes.data() + kFrameHeaderSize,
                              payload.size())
                  .IsCorruption());
}

TEST(NetProtocol, ResponseStatusRoundTrip) {
  const Status cases[] = {
      Status::OK(),
      Status::Unavailable("shed"),
      Status::InvalidArgument("bad"),
      Status::NotFound("missing"),
      Status::Corruption("mangled"),
      Status::IOError("disk"),
      Status::NotSupported("nope"),
      Status::OutOfRange("far"),
  };
  for (const Status& st : cases) {
    ByteBuffer buf;
    EncodeResponseStatus(st, &buf);
    ByteReader reader(buf.data());
    Status decoded;
    ASSERT_TRUE(DecodeResponseStatus(&reader, &decoded).ok());
    EXPECT_EQ(decoded.code(), st.code()) << st.ToString();
    if (!st.ok()) EXPECT_EQ(decoded.message(), st.message());
  }
}

/// Decodes the first `size` bytes of a WriteBatch payload through the
/// server's view decoder, for tests that only need the status.
Status DecodeWriteBatch(const ByteBuffer& buf, size_t size) {
  std::vector<TvPairDouble> scratch;
  WriteBatchView view;
  return DecodeWriteBatchView(buf.data().data(), size, &scratch, &view);
}

TEST(NetProtocol, WriteBatchRoundTrip) {
  WriteBatchRequest req;
  req.sensor = "root.sg.d1.s1";
  req.points = {{10, 1.5}, {-3, -0.25}, {11, 2.0}};
  ByteBuffer buf;
  EncodeWriteBatchRequest(req, &buf);
  // The points start 15 bytes into the payload. Placing the payload at
  // every offset of an 8-aligned buffer covers both the aliasing decode
  // and the copy into scratch.
  std::vector<uint64_t> storage(buf.size() / 8 + 2);
  for (size_t off = 0; off < 8; ++off) {
    uint8_t* base = reinterpret_cast<uint8_t*>(storage.data()) + off;
    std::memcpy(base, buf.data().data(), buf.size());
    std::vector<TvPairDouble> scratch;
    WriteBatchView view;
    ASSERT_TRUE(DecodeWriteBatchView(base, buf.size(), &scratch, &view).ok());
    EXPECT_EQ(view.sensor, req.sensor);
    ASSERT_EQ(view.count, req.points.size());
    const bool aligned = (off + 15) % alignof(TvPairDouble) == 0;
    if (kPointsAreWireLayout) {
      EXPECT_EQ(view.points == reinterpret_cast<const TvPairDouble*>(base + 15),
                aligned)
          << "offset " << off;
    }
    for (size_t i = 0; i < view.count; ++i) {
      EXPECT_EQ(view.points[i], req.points[i]) << "offset " << off;
    }
  }
}

TEST(NetProtocol, WriteBatchRejectsOverdeclaredCount) {
  // A count field claiming more points than the payload holds must fail
  // cleanly, without attempting a matching allocation.
  ByteBuffer buf;
  buf.PutLengthPrefixedString("s");
  buf.PutVarint64(1u << 30);
  EXPECT_TRUE(DecodeWriteBatch(buf, buf.size()).IsCorruption());
}

TEST(NetProtocol, WriteBatchRejectsHugeSensorLength) {
  // Sensor-name length declared as 2^64-1: the bounds check must not wrap
  // in size_t arithmetic, or assign() throws std::length_error (uncaught
  // in the server worker -> std::terminate) or reads out of bounds. The
  // attacker controls this varint and can compute a matching frame CRC.
  ByteBuffer buf;
  buf.PutVarint64(UINT64_MAX);
  buf.PutU8('s');
  EXPECT_TRUE(DecodeWriteBatch(buf, buf.size()).IsCorruption());
}

TEST(NetProtocol, WriteBatchRejectsTrailingBytes) {
  WriteBatchRequest req;
  req.sensor = "s";
  req.points = {{1, 1.0}};
  ByteBuffer buf;
  EncodeWriteBatchRequest(req, &buf);
  buf.PutU8(0);  // one stray byte
  EXPECT_TRUE(DecodeWriteBatch(buf, buf.size()).IsCorruption());
}

TEST(NetProtocol, RangeAndSensorRequestRoundTrip) {
  RangeRequest range{"sensor.x", -100, 1'000'000};
  ByteBuffer buf;
  EncodeRangeRequest(range, &buf);
  RangeRequest range_out;
  ASSERT_TRUE(DecodeRangeRequest(buf.data().data(), buf.size(), &range_out)
                  .ok());
  EXPECT_EQ(range_out.sensor, range.sensor);
  EXPECT_EQ(range_out.t_min, range.t_min);
  EXPECT_EQ(range_out.t_max, range.t_max);

  SensorRequest sensor{"sensor.y"};
  ByteBuffer buf2;
  EncodeSensorRequest(sensor, &buf2);
  SensorRequest sensor_out;
  ASSERT_TRUE(DecodeSensorRequest(buf2.data().data(), buf2.size(),
                                  &sensor_out)
                  .ok());
  EXPECT_EQ(sensor_out.sensor, sensor.sensor);
}

TEST(NetProtocol, PointListAndAggregateRoundTrip) {
  const std::vector<TvPairDouble> points = {{1, 0.5}, {2, -1e300}, {3, 0.0}};
  ByteBuffer buf;
  EncodePointList(points, &buf);
  ByteReader reader(buf.data());
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(DecodePointList(&reader, &out).ok());
  EXPECT_EQ(out, points);

  AggregateResult agg;
  agg.stats = {3, 1.5, -1.0, 2.0, 1, 0.5, 3, 0.0};
  agg.used_fast_path = true;
  ByteBuffer buf2;
  EncodeAggregateResult(agg, &buf2);
  ByteReader reader2(buf2.data());
  AggregateResult agg_out;
  ASSERT_TRUE(DecodeAggregateResult(&reader2, &agg_out).ok());
  EXPECT_EQ(agg_out.stats.count, agg.stats.count);
  EXPECT_DOUBLE_EQ(agg_out.stats.sum, agg.stats.sum);
  EXPECT_DOUBLE_EQ(agg_out.stats.min, agg.stats.min);
  EXPECT_DOUBLE_EQ(agg_out.stats.max, agg.stats.max);
  EXPECT_EQ(agg_out.stats.first_time, agg.stats.first_time);
  EXPECT_EQ(agg_out.stats.last_time, agg.stats.last_time);
  EXPECT_TRUE(agg_out.used_fast_path);
}

// Pins the BSN1 bytes of three AggregateFast answers, each computed by the
// engine: a NaN-mixed range that folds a partial chunk page by page and a
// whole chunk from its footer, an all-NaN range (min = +inf, max = -inf)
// and an empty range (all zeros).
TEST(NetProtocol, AggregateResultBytesMatchGolden) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("net_protocol_agg_golden_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  EngineOptions opt;
  opt.data_dir = dir.string();
  opt.shard_count = 1;
  opt.async_flush = false;
  std::vector<uint64_t> digests;
  {
    StorageEngine engine(opt);
    ASSERT_TRUE(engine.Open().ok());
    // Two sequence files of 5,000 points, a NaN every 11th value.
    for (int f = 0; f < 2; ++f) {
      for (int i = f * 5'000; i < (f + 1) * 5'000; ++i) {
        const double v = i % 11 == 0 ? std::nan("") : std::cos(i * 0.003) * 7;
        ASSERT_TRUE(engine.Write("mixed", i, v).ok());
      }
      ASSERT_TRUE(engine.FlushAll().ok());
    }
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(engine.Write("allnan", i, std::nan("")).ok());
    }
    ASSERT_TRUE(engine.FlushAll().ok());
    const struct {
      const char* sensor;
      Timestamp t_min, t_max;
    } ranges[] = {{"mixed", 1'234, 20'000}, {"allnan", 0, 299},
                  {"mixed", 20'000, 30'000}};
    for (const auto& r : ranges) {
      AggregateResult result;
      ASSERT_TRUE(engine
                      .AggregateFast(r.sensor, r.t_min, r.t_max,
                                     &result.stats, &result.used_fast_path)
                      .ok());
      EXPECT_TRUE(result.used_fast_path);
      ByteBuffer buf;
      EncodeAggregateResult(result, &buf);
      digests.push_back(bench::FnvBytes(buf.data().data(), buf.size()));
    }
    // The mixed range took one chunk from its footer and one page by
    // page; the all-NaN range took its chunk from the footer.
    const auto snap = engine.GetMetricsSnapshot();
    EXPECT_EQ(snap.agg_stats_hits, 2u);
    EXPECT_EQ(snap.agg_stats_misses, 1u);
  }
  std::filesystem::remove_all(dir);
  const uint64_t kGolden[] = {0x63a1105a3007bb63ull, 0x499d72a08187ccf4ull,
                             0xb6064697d211d0e8ull};
  for (size_t i = 0; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i], kGolden[i])
        << "result " << i << " actual 0x" << std::hex << digests[i];
  }
}

TEST(NetProtocol, TruncatedPayloadsFailCleanly) {
  WriteBatchRequest req;
  req.sensor = "s";
  req.points = {{1, 1.0}, {2, 2.0}};
  ByteBuffer buf;
  EncodeWriteBatchRequest(req, &buf);
  // Every prefix must decode to an error, never crash or succeed.
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    EXPECT_FALSE(DecodeWriteBatch(buf, cut).ok()) << "prefix length " << cut;
  }
}

TEST(NetProtocol, ReplicateBatchRoundTrip) {
  ReplicateBatchRequest req;
  req.source_id = "node-a.rack_1";
  req.shard = kMaxReplicationShards - 1;
  req.end = {7, 4096};
  req.groups = {{"s1", {{1, 1.0}, {2, 2.0}}}, {"s2", {{3, -0.5}}}};
  ByteBuffer buf;
  EncodeReplicateBatchRequest(req, &buf);
  ReplicateBatchRequest out;
  ASSERT_TRUE(
      DecodeReplicateBatchRequest(buf.data().data(), buf.size(), &out).ok());
  EXPECT_EQ(out.source_id, req.source_id);
  EXPECT_EQ(out.shard, req.shard);
  EXPECT_EQ(out.end, req.end);
  ASSERT_EQ(out.groups.size(), 2u);
  EXPECT_EQ(out.groups[0].sensor, "s1");
  EXPECT_EQ(out.groups[0].points, req.groups[0].points);
  EXPECT_EQ(out.groups[1].sensor, "s2");
  EXPECT_EQ(out.groups[1].points, req.groups[1].points);
}

TEST(NetProtocol, ReplicateBatchRejectsOutOfRangeShard) {
  // The follower resizes its cursor frontier to shard + 1: UINT64_MAX
  // wraps that to resize(0) and the subsequent index is out of bounds;
  // merely-large values are a multi-TiB allocation. Both must die at
  // decode, as a request error (the connection survives).
  for (const uint64_t shard :
       {static_cast<uint64_t>(kMaxReplicationShards),
        uint64_t{1} << 40, UINT64_MAX}) {
    ReplicateBatchRequest req;
    req.source_id = "src";
    req.shard = shard;
    ByteBuffer buf;
    EncodeReplicateBatchRequest(req, &buf);
    ReplicateBatchRequest out;
    EXPECT_TRUE(DecodeReplicateBatchRequest(buf.data().data(), buf.size(),
                                            &out)
                    .IsInvalidArgument())
        << "shard " << shard;
  }
}

TEST(NetProtocol, PointRunCountsBeyondPayloadAreRejected) {
  // Every BSN1 point run is read by GetPoints, which must refuse a count
  // the remaining bytes cannot hold before it allocates: here a point
  // list and a replicate-batch group each declare 2^60 points ahead of
  // one real point.
  const TvPairDouble p{1, 1.0};
  constexpr uint64_t kHuge = uint64_t{1} << 60;
  ByteBuffer list;
  list.PutVarint64(kHuge);
  PutPoints(&p, 1, &list);
  ByteReader reader(list.data());
  std::vector<TvPairDouble> points;
  EXPECT_TRUE(DecodePointList(&reader, &points).IsCorruption());
  EXPECT_TRUE(points.empty());

  ReplicateBatchRequest req;
  req.source_id = "src";
  ByteBuffer head;
  EncodeReplicateBatchRequest(req, &head);  // ends in group count 0
  ByteBuffer batch;
  batch.PutBytes(head.data().data(), head.size() - 1);
  batch.PutVarint64(1);
  batch.PutLengthPrefixedString("s");
  batch.PutVarint64(kHuge);
  PutPoints(&p, 1, &batch);
  ReplicateBatchRequest out;
  EXPECT_TRUE(DecodeReplicateBatchRequest(batch.data().data(), batch.size(),
                                          &out)
                  .IsCorruption());
}

TEST(NetProtocol, ReplicationSourceIdValidation) {
  EXPECT_TRUE(ValidSourceId("node-a.rack_1"));
  EXPECT_TRUE(ValidSourceId(std::string(kMaxSourceIdBytes, 'a')));
  EXPECT_FALSE(ValidSourceId(""));
  EXPECT_FALSE(ValidSourceId(std::string(kMaxSourceIdBytes + 1, 'a')));
  EXPECT_FALSE(ValidSourceId("../../../etc/passwd"));  // path separators
  EXPECT_FALSE(ValidSourceId("a/b"));
  EXPECT_FALSE(ValidSourceId("a b"));
  EXPECT_FALSE(ValidSourceId(std::string("a\0b", 3)));

  // Both replication decoders enforce it: the id lands in a cursor
  // filename and keys the follower's frontier map.
  for (const std::string& hostile :
       {std::string("../escape"), std::string(kMaxSourceIdBytes + 1, 'x'),
        std::string()}) {
    ByteBuffer batch;
    batch.PutLengthPrefixedString(hostile);
    batch.PutVarint64(0);  // shard
    ReplicateBatchRequest batch_out;
    EXPECT_TRUE(DecodeReplicateBatchRequest(batch.data().data(), batch.size(),
                                            &batch_out)
                    .IsInvalidArgument())
        << "batch source id \"" << hostile << '"';

    ReplicationAckRequest ack{hostile};
    ByteBuffer buf;
    EncodeReplicationAckRequest(ack, &buf);
    ReplicationAckRequest ack_out;
    EXPECT_TRUE(DecodeReplicationAckRequest(buf.data().data(), buf.size(),
                                            &ack_out)
                    .IsInvalidArgument())
        << "ack source id \"" << hostile << '"';
  }
}

// --- seeded mutation oracle over the payload decoders -------------------------
//
// Each valid seed payload is damaged by random byte flips, truncations and
// overwrites aimed at its varint and length fields. A decode must return
// OK or a clean error (Corruption / InvalidArgument), never crash, and
// never size an output beyond what the payload bytes could describe. An
// OK value must re-encode to bytes that decode to the same value.

/// A valid payload plus the offsets of its varint and length fields.
struct MutationSeed {
  std::vector<uint8_t> bytes;
  std::vector<size_t> fields;
};

/// Decodes `size` bytes and returns the status. On OK it re-encodes the
/// value, decodes that again and records any difference as a failure.
using DecodeOracle = std::function<Status(const uint8_t* data, size_t size)>;

MutationSeed SeedOf(const ByteBuffer& bytes, std::vector<size_t> fields) {
  return {bytes.data(), std::move(fields)};
}

std::vector<uint8_t> Mutate(const MutationSeed& seed, Rng& rng) {
  std::vector<uint8_t> b = seed.bytes;
  const size_t field = seed.fields[rng.NextBelow(seed.fields.size())];
  switch (rng.NextBelow(4)) {
    case 0:  // one to three random byte flips anywhere
      for (uint64_t n = 1 + rng.NextBelow(3); n > 0; --n) {
        b[rng.NextBelow(b.size())] ^=
            static_cast<uint8_t>(1 + rng.NextBelow(255));
      }
      break;
    case 1:  // a strict prefix
      b.resize(rng.NextBelow(b.size()));
      break;
    case 2: {  // overwrite the first byte of a varint or length field
      static constexpr uint8_t kEdges[] = {0x00, 0x01, 0x7f, 0x80, 0xff};
      b[field] = rng.NextBelow(2) == 0
                     ? kEdges[rng.NextBelow(std::size(kEdges))]
                     : static_cast<uint8_t>(rng.NextU64());
      break;
    }
    default: {  // splice a huge or overlong varint over a one-byte field
      ByteBuffer huge;
      static constexpr uint64_t kHuge[] = {uint64_t{1} << 32,
                                           uint64_t{1} << 60, UINT64_MAX};
      const uint64_t pick = rng.NextBelow(std::size(kHuge) + 1);
      if (pick < std::size(kHuge)) {
        huge.PutVarint64(kHuge[pick]);
      } else {
        for (int i = 0; i < 10; ++i) huge.PutU8(0xff);  // 11-byte varint
        huge.PutU8(0x01);
      }
      b.erase(b.begin() + static_cast<std::ptrdiff_t>(field));
      b.insert(b.begin() + static_cast<std::ptrdiff_t>(field),
               huge.data().begin(), huge.data().end());
      break;
    }
  }
  return b;
}

void RunMutationOracle(const char* name,
                       const std::vector<MutationSeed>& seeds,
                       const DecodeOracle& oracle, uint64_t rng_seed) {
  for (const MutationSeed& seed : seeds) {
    ASSERT_TRUE(oracle(seed.bytes.data(), seed.bytes.size()).ok()) << name;
  }
  Rng rng(rng_seed);
  size_t ok = 0, rejected = 0;
  for (int i = 0; i < 4'000; ++i) {
    const std::vector<uint8_t> bytes =
        Mutate(seeds[rng.NextBelow(seeds.size())], rng);
    const Status st = oracle(bytes.data(), bytes.size());
    if (st.ok()) {
      ++ok;
    } else {
      ++rejected;
      EXPECT_TRUE(st.IsCorruption() || st.IsInvalidArgument())
          << name << " mutation " << i << ": " << st.ToString();
    }
  }
  // Both outcomes occur, so the error paths and the re-encode check run.
  EXPECT_GT(ok, 0u) << name;
  EXPECT_GT(rejected, 0u) << name;
}

bool SamePointBits(const TvPairDouble* a, const TvPairDouble* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(TvPairDouble)) == 0;
}

bool SamePoints(const std::vector<TvPairDouble>& a,
                const std::vector<TvPairDouble>& b) {
  return a.size() == b.size() && SamePointBits(a.data(), b.data(), a.size());
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

const std::vector<TvPairDouble> kSeedPoints = {
    {1, 0.5}, {-7, std::nan("")}, {INT64_MAX, -1e300}};

TEST(NetProtocolMutation, WriteBatchView) {
  std::vector<MutationSeed> seeds;
  // A 6-byte sensor puts the points at offset 8: the aligned zero-copy
  // path. A 1-byte sensor takes the scratch copy.
  for (const std::string sensor : {"s", "sensor"}) {
    ByteBuffer buf;
    EncodeWriteBatchRequest(sensor, kSeedPoints.data(), kSeedPoints.size(),
                            &buf);
    seeds.push_back(SeedOf(buf, {0, 1 + sensor.size()}));
  }
  RunMutationOracle(
      "write_batch", seeds,
      [](const uint8_t* data, size_t size) {
        std::vector<TvPairDouble> scratch;
        WriteBatchView view;
        const Status st = DecodeWriteBatchView(data, size, &scratch, &view);
        EXPECT_LE(view.sensor.size(), size);
        EXPECT_LE(scratch.capacity(), size);
        if (!st.ok()) return st;
        ByteBuffer again;
        EncodeWriteBatchRequest(view.sensor, view.points, view.count, &again);
        std::vector<TvPairDouble> scratch2;
        WriteBatchView view2;
        EXPECT_TRUE(DecodeWriteBatchView(again.data().data(), again.size(),
                                         &scratch2, &view2)
                        .ok());
        EXPECT_EQ(view2.sensor, view.sensor);
        EXPECT_EQ(view2.count, view.count);
        EXPECT_TRUE(view2.count != view.count ||
                    SamePointBits(view2.points, view.points, view.count));
        return st;
      },
      101);
}

TEST(NetProtocolMutation, RangeRequest) {
  ByteBuffer buf;
  EncodeRangeRequest(RangeRequest{"sensor.x", -100, 1'000'000}, &buf);
  RunMutationOracle(
      "range", {SeedOf(buf, {0})},
      [](const uint8_t* data, size_t size) {
        RangeRequest req;
        const Status st = DecodeRangeRequest(data, size, &req);
        EXPECT_LE(req.sensor.size(), size);
        if (!st.ok()) return st;
        ByteBuffer again;
        EncodeRangeRequest(req, &again);
        RangeRequest req2;
        EXPECT_TRUE(
            DecodeRangeRequest(again.data().data(), again.size(), &req2).ok());
        EXPECT_EQ(req2.sensor, req.sensor);
        EXPECT_EQ(req2.t_min, req.t_min);
        EXPECT_EQ(req2.t_max, req.t_max);
        return st;
      },
      102);
}

TEST(NetProtocolMutation, SensorRequest) {
  ByteBuffer buf;
  EncodeSensorRequest(SensorRequest{"sensor.y"}, &buf);
  RunMutationOracle(
      "sensor", {SeedOf(buf, {0})},
      [](const uint8_t* data, size_t size) {
        SensorRequest req;
        const Status st = DecodeSensorRequest(data, size, &req);
        EXPECT_LE(req.sensor.size(), size);
        if (!st.ok()) return st;
        ByteBuffer again;
        EncodeSensorRequest(req, &again);
        SensorRequest req2;
        EXPECT_TRUE(
            DecodeSensorRequest(again.data().data(), again.size(), &req2)
                .ok());
        EXPECT_EQ(req2.sensor, req.sensor);
        return st;
      },
      103);
}

TEST(NetProtocolMutation, ReplicateBatchRequest) {
  ReplicateBatchRequest req;
  req.source_id = "node-a";
  req.shard = 3;
  req.end = {7, 4'096};
  req.groups = {{"s1", {kSeedPoints[0], kSeedPoints[1]}},
                {"s2", {kSeedPoints[2]}}};
  // Built field by field to record the offsets, then checked against the
  // real encoder.
  MutationSeed seed;
  ByteBuffer buf;
  const auto field = [&] { seed.fields.push_back(buf.size()); };
  field();
  buf.PutLengthPrefixedString(req.source_id);
  field();
  buf.PutVarint64(req.shard);
  field();
  buf.PutVarint64(req.end.segment);
  field();
  buf.PutVarint64(req.end.offset);
  field();
  buf.PutVarint64(req.groups.size());
  for (const WriteBatchRequest& group : req.groups) {
    field();
    buf.PutLengthPrefixedString(group.sensor);
    field();
    buf.PutVarint64(group.points.size());
    PutPoints(group.points.data(), group.points.size(), &buf);
  }
  ByteBuffer encoded;
  EncodeReplicateBatchRequest(req, &encoded);
  ASSERT_EQ(buf.data(), encoded.data());
  seed.bytes = buf.data();
  RunMutationOracle(
      "replicate_batch", {seed},
      [](const uint8_t* data, size_t size) {
        ReplicateBatchRequest out;
        const Status st = DecodeReplicateBatchRequest(data, size, &out);
        EXPECT_LE(out.source_id.size(), size);
        EXPECT_LE(out.groups.capacity(), size);
        for (const WriteBatchRequest& group : out.groups) {
          EXPECT_LE(group.sensor.size(), size);
          EXPECT_LE(group.points.capacity(), size);
        }
        if (!st.ok()) return st;
        ByteBuffer again;
        EncodeReplicateBatchRequest(out, &again);
        ReplicateBatchRequest out2;
        EXPECT_TRUE(DecodeReplicateBatchRequest(again.data().data(),
                                                again.size(), &out2)
                        .ok());
        EXPECT_EQ(out2.source_id, out.source_id);
        EXPECT_EQ(out2.shard, out.shard);
        EXPECT_EQ(out2.end, out.end);
        EXPECT_EQ(out2.groups.size(), out.groups.size());
        for (size_t g = 0; g < std::min(out.groups.size(), out2.groups.size());
             ++g) {
          EXPECT_EQ(out2.groups[g].sensor, out.groups[g].sensor);
          EXPECT_TRUE(SamePoints(out2.groups[g].points, out.groups[g].points));
        }
        return st;
      },
      104);
}

TEST(NetProtocolMutation, ReplicationAckRequest) {
  ByteBuffer buf;
  EncodeReplicationAckRequest(ReplicationAckRequest{"node-a.rack_1"}, &buf);
  RunMutationOracle(
      "replication_ack", {SeedOf(buf, {0})},
      [](const uint8_t* data, size_t size) {
        ReplicationAckRequest req;
        const Status st = DecodeReplicationAckRequest(data, size, &req);
        EXPECT_LE(req.source_id.size(), size);
        if (!st.ok()) return st;
        ByteBuffer again;
        EncodeReplicationAckRequest(req, &again);
        ReplicationAckRequest req2;
        EXPECT_TRUE(DecodeReplicationAckRequest(again.data().data(),
                                                again.size(), &req2)
                        .ok());
        EXPECT_EQ(req2.source_id, req.source_id);
        return st;
      },
      105);
}

TEST(NetProtocolMutation, ResponseStatus) {
  std::vector<MutationSeed> seeds;
  for (const Status& st : {Status::OK(), Status::NotFound("no such sensor"),
                           Status::Unavailable("overloaded")}) {
    ByteBuffer buf;
    EncodeResponseStatus(st, &buf);
    seeds.push_back(SeedOf(buf, {0, 1}));  // code byte, message length
  }
  RunMutationOracle(
      "response_status", seeds,
      [](const uint8_t* data, size_t size) {
        ByteReader reader(data, size);
        Status rpc;
        const Status st = DecodeResponseStatus(&reader, &rpc);
        EXPECT_LE(rpc.message().size(), size + 64);  // + a fixed prefix
        if (!st.ok()) return st;
        ByteBuffer again;
        EncodeResponseStatus(rpc, &again);
        ByteReader reader2(again.data());
        Status rpc2;
        EXPECT_TRUE(DecodeResponseStatus(&reader2, &rpc2).ok());
        EXPECT_EQ(rpc2.code(), rpc.code());
        EXPECT_EQ(rpc2.message(), rpc.message());
        return st;
      },
      106);
}

TEST(NetProtocolMutation, PointList) {
  ByteBuffer buf;
  EncodePointList(kSeedPoints, &buf);
  RunMutationOracle(
      "point_list", {SeedOf(buf, {0})},
      [](const uint8_t* data, size_t size) {
        ByteReader reader(data, size);
        std::vector<TvPairDouble> points;
        const Status st = DecodePointList(&reader, &points);
        EXPECT_LE(points.capacity(), size);
        if (!st.ok()) return st;
        ByteBuffer again;
        EncodePointList(points, &again);
        ByteReader reader2(again.data());
        std::vector<TvPairDouble> points2;
        EXPECT_TRUE(DecodePointList(&reader2, &points2).ok());
        EXPECT_TRUE(SamePoints(points2, points));
        return st;
      },
      107);
}

TEST(NetProtocolMutation, AggregateResult) {
  AggregateResult agg;
  agg.stats = {3, 1.5, -1.0, std::nan(""), 1, 0.5, 3, 0.0};
  agg.used_fast_path = true;
  ByteBuffer buf;
  EncodeAggregateResult(agg, &buf);
  // The count varint and the trailing fast-path flag.
  RunMutationOracle(
      "aggregate_result", {SeedOf(buf, {0, buf.size() - 1})},
      [](const uint8_t* data, size_t size) {
        ByteReader reader(data, size);
        AggregateResult r;
        const Status st = DecodeAggregateResult(&reader, &r);
        if (!st.ok()) return st;
        ByteBuffer again;
        EncodeAggregateResult(r, &again);
        ByteReader reader2(again.data());
        AggregateResult r2;
        EXPECT_TRUE(DecodeAggregateResult(&reader2, &r2).ok());
        EXPECT_EQ(r2.stats.count, r.stats.count);
        EXPECT_TRUE(SameBits(r2.stats.sum, r.stats.sum));
        EXPECT_TRUE(SameBits(r2.stats.min, r.stats.min));
        EXPECT_TRUE(SameBits(r2.stats.max, r.stats.max));
        EXPECT_EQ(r2.stats.first_time, r.stats.first_time);
        EXPECT_TRUE(SameBits(r2.stats.first, r.stats.first));
        EXPECT_EQ(r2.stats.last_time, r.stats.last_time);
        EXPECT_TRUE(SameBits(r2.stats.last, r.stats.last));
        EXPECT_EQ(r2.used_fast_path, r.used_fast_path);
        return st;
      },
      108);
}

// --- malformed bytes against a live server -------------------------------------

class NetMalformedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("net_proto_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    EngineOptions engine_opt;
    engine_opt.data_dir = dir_.string();
    ServerOptions server_opt;  // ephemeral port, defaults otherwise
    server_ = std::make_unique<BacksortServer>(engine_opt, server_opt);
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override {
    server_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Raw connection with bounded timeouts, so a buggy server that neither
  /// answers nor closes fails the test instead of hanging it.
  ScopedFd RawConnect() {
    ScopedFd fd;
    EXPECT_TRUE(TcpConnect("127.0.0.1", server_->port(), 2'000, &fd).ok());
    EXPECT_TRUE(SetSocketTimeouts(fd.get(), 2'000, 2'000).ok());
    return fd;
  }

  /// Reads one full response frame, checks its framing (type echo with the
  /// response bit, CRC) and returns the decoded wire status.
  Status ReadResponse(const ScopedFd& fd, MsgType expect_type) {
    uint8_t header_bytes[kFrameHeaderSize];
    RETURN_NOT_OK(RecvAll(fd.get(), header_bytes, kFrameHeaderSize, nullptr));
    FrameHeader header;
    RETURN_NOT_OK(ParseFrameHeader(header_bytes, &header));
    if (!header.is_response || header.type != expect_type) {
      return Status::Corruption("unexpected response frame");
    }
    std::vector<uint8_t> payload(header.payload_size);
    RETURN_NOT_OK(RecvAll(fd.get(), payload.data(), payload.size(), nullptr));
    RETURN_NOT_OK(CheckPayloadCrc(header, payload.data(), payload.size()));
    ByteReader reader(payload);
    Status rpc_status;
    RETURN_NOT_OK(DecodeResponseStatus(&reader, &rpc_status));
    return rpc_status;
  }

  /// True when the server closed the connection (EOF) instead of replying.
  bool ServerClosed(const ScopedFd& fd) {
    uint8_t byte = 0;
    bool clean_eof = false;
    const Status st = RecvAll(fd.get(), &byte, 1, &clean_eof);
    return !st.ok() && clean_eof;
  }

  uint64_t ProtocolErrors() {
    return server_->GetNetMetrics().protocol_errors;
  }

  /// A well-formed peer must still get service after another connection
  /// misbehaved.
  void ExpectServerStillHealthy() {
    BacksortClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    EXPECT_TRUE(client.Ping().ok());
  }

  std::filesystem::path dir_;
  std::unique_ptr<BacksortServer> server_;
};

TEST_F(NetMalformedTest, PartialFramesAcrossWakeupsReassemble) {
  // A frame trickling in over many epoll wakeups — and two frames whose
  // boundary falls mid-header in one send — must reassemble exactly.
  ScopedFd fd = RawConnect();

  // Ping sent one byte at a time.
  ByteBuffer ping;
  EncodeFrame(MsgType::kPing, false, ByteBuffer(), &ping);
  for (const uint8_t byte : ping.data()) {
    ASSERT_TRUE(SendAll(fd.get(), &byte, 1).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(ReadResponse(fd, MsgType::kPing).ok());

  // Two write frames concatenated, split mid-way through the second
  // header: [frame1 | 5 bytes of frame2]  ...  [rest of frame2].
  ByteBuffer w1, w2;
  {
    WriteBatchRequest req;
    req.sensor = "s";
    req.points = {{1, 1.0}};
    ByteBuffer payload;
    EncodeWriteBatchRequest(req, &payload);
    EncodeFrame(MsgType::kWriteBatch, false, payload, &w1);
    req.points = {{2, 2.0}};
    ByteBuffer payload2;
    EncodeWriteBatchRequest(req, &payload2);
    EncodeFrame(MsgType::kWriteBatch, false, payload2, &w2);
  }
  std::vector<uint8_t> chunk1 = w1.data();
  chunk1.insert(chunk1.end(), w2.data().begin(), w2.data().begin() + 5);
  ASSERT_TRUE(SendAll(fd.get(), chunk1.data(), chunk1.size()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(
      SendAll(fd.get(), w2.data().data() + 5, w2.size() - 5).ok());

  ASSERT_TRUE(ReadResponse(fd, MsgType::kWriteBatch).ok());
  ASSERT_TRUE(ReadResponse(fd, MsgType::kWriteBatch).ok());
  EXPECT_EQ(ProtocolErrors(), 0u);
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(server_->engine()->Query("s", 0, 100, &out).ok());
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(NetMalformedTest, ConcatenatedFramesPipelineInOrder) {
  // Three pings in ONE send land in the server's buffer together, so the
  // decode loop must see depth 1, 2, 3 before any response is written —
  // and the responses must come back in request order.
  ByteBuffer ping;
  EncodeFrame(MsgType::kPing, false, ByteBuffer(), &ping);
  std::vector<uint8_t> burst;
  for (int i = 0; i < 3; ++i) {
    burst.insert(burst.end(), ping.data().begin(), ping.data().end());
  }
  ScopedFd fd = RawConnect();
  ASSERT_TRUE(SendAll(fd.get(), burst.data(), burst.size()).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ReadResponse(fd, MsgType::kPing).ok()) << "response " << i;
  }
  const NetMetricsSnapshot net = server_->GetNetMetrics();
  EXPECT_EQ(net.pipeline_depth.count, 3u);
  EXPECT_EQ(net.pipeline_depth.max, 3u);
}

TEST_F(NetMalformedTest, MalformedFrameMidPipelineDrainsPriorResponses) {
  // [valid ping][valid write][garbage header] in one burst: the two valid
  // requests must be answered, in order and uncorrupted, before the
  // connection closes for the garbage.
  ByteBuffer ping;
  EncodeFrame(MsgType::kPing, false, ByteBuffer(), &ping);
  WriteBatchRequest req;
  req.sensor = "s";
  req.points = {{7, 7.5}};
  ByteBuffer payload;
  EncodeWriteBatchRequest(req, &payload);
  ByteBuffer write;
  EncodeFrame(MsgType::kWriteBatch, false, payload, &write);

  std::vector<uint8_t> burst = ping.data();
  burst.insert(burst.end(), write.data().begin(), write.data().end());
  burst.insert(burst.end(), kFrameHeaderSize, uint8_t{0xab});

  ScopedFd fd = RawConnect();
  ASSERT_TRUE(SendAll(fd.get(), burst.data(), burst.size()).ok());
  ASSERT_TRUE(ReadResponse(fd, MsgType::kPing).ok());
  ASSERT_TRUE(ReadResponse(fd, MsgType::kWriteBatch).ok());
  EXPECT_TRUE(ServerClosed(fd));
  EXPECT_EQ(ProtocolErrors(), 1u);
  // The write that preceded the garbage was applied exactly once.
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(server_->engine()->Query("s", 0, 100, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].v, 7.5);
  ExpectServerStillHealthy();
}

TEST_F(NetMalformedTest, GarbagePreambleClosesConnection) {
  ScopedFd fd = RawConnect();
  uint8_t garbage[kFrameHeaderSize];
  std::memset(garbage, 0xab, sizeof(garbage));
  ASSERT_TRUE(SendAll(fd.get(), garbage, sizeof(garbage)).ok());
  EXPECT_TRUE(ServerClosed(fd));
  EXPECT_EQ(ProtocolErrors(), 1u);
  ExpectServerStillHealthy();
}

TEST_F(NetMalformedTest, TruncatedFrameClosesConnection) {
  WriteBatchRequest req;
  req.sensor = "s";
  req.points = {{1, 1.0}, {2, 2.0}};
  ByteBuffer payload;
  EncodeWriteBatchRequest(req, &payload);
  ByteBuffer frame;
  EncodeFrame(MsgType::kWriteBatch, false, payload, &frame);
  {
    // Send the header plus half the payload, then close: a torn frame.
    ScopedFd fd = RawConnect();
    ASSERT_TRUE(
        SendAll(fd.get(), frame.data().data(), kFrameHeaderSize + 5).ok());
  }
  // The server notices the tear when its read hits EOF mid-payload.
  BacksortClient probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(probe.Ping().ok());
  for (int i = 0; i < 100 && ProtocolErrors() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(ProtocolErrors(), 1u);
  // The torn write batch must not be partially applied.
  std::vector<TvPairDouble> out;
  EXPECT_TRUE(server_->engine()->Query("s", 0, 100, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(NetMalformedTest, CrcFlippedPayloadClosesWithoutApplying) {
  WriteBatchRequest req;
  req.sensor = "s";
  req.points = {{1, 1.0}, {2, 2.0}};
  ByteBuffer payload;
  EncodeWriteBatchRequest(req, &payload);
  ByteBuffer frame;
  EncodeFrame(MsgType::kWriteBatch, false, payload, &frame);
  std::vector<uint8_t> bytes = frame.data();
  bytes[kFrameHeaderSize + 3] ^= 0x10;  // corrupt payload, keep old CRC

  ScopedFd fd = RawConnect();
  ASSERT_TRUE(SendAll(fd.get(), bytes.data(), bytes.size()).ok());
  EXPECT_TRUE(ServerClosed(fd));
  EXPECT_EQ(ProtocolErrors(), 1u);
  std::vector<TvPairDouble> out;
  EXPECT_TRUE(server_->engine()->Query("s", 0, 100, &out).ok());
  EXPECT_TRUE(out.empty());  // nothing applied, not even partially
  ExpectServerStillHealthy();
}

TEST_F(NetMalformedTest, OversizedDeclaredLengthClosesConnection) {
  // Header declares a payload far beyond max_frame_bytes; the server must
  // reject it from the header alone (no allocation, no read).
  ByteBuffer header;
  header.PutFixed32(kFrameMagic);
  header.PutU8(static_cast<uint8_t>(MsgType::kWriteBatch));
  header.PutFixed32(0xf0000000u);
  header.PutFixed32(0);
  ScopedFd fd = RawConnect();
  ASSERT_TRUE(SendAll(fd.get(), header.data().data(), header.size()).ok());
  EXPECT_TRUE(ServerClosed(fd));
  EXPECT_EQ(ProtocolErrors(), 1u);
  ExpectServerStillHealthy();
}

TEST_F(NetMalformedTest, ResponseBitOnRequestClosesConnection) {
  // A "response" arriving at the server is a protocol violation.
  ByteBuffer frame;
  EncodeFrame(MsgType::kPing, /*is_response=*/true, ByteBuffer(), &frame);
  ScopedFd fd = RawConnect();
  ASSERT_TRUE(SendAll(fd.get(), frame.data().data(), frame.size()).ok());
  EXPECT_TRUE(ServerClosed(fd));
  EXPECT_EQ(ProtocolErrors(), 1u);
  ExpectServerStillHealthy();
}

TEST_F(NetMalformedTest, MalformedDecodeKeepsConnectionOpen) {
  // A CRC-valid frame whose payload fails request decoding is the client's
  // bug, not a torn stream: the server answers with an error status and
  // keeps serving the same connection.
  ByteBuffer payload;
  payload.PutU8(0xff);  // not a valid WriteBatchRequest
  ByteBuffer frame;
  EncodeFrame(MsgType::kWriteBatch, false, payload, &frame);
  ScopedFd fd = RawConnect();
  ASSERT_TRUE(SendAll(fd.get(), frame.data().data(), frame.size()).ok());

  uint8_t header_bytes[kFrameHeaderSize];
  ASSERT_TRUE(RecvAll(fd.get(), header_bytes, kFrameHeaderSize, nullptr).ok());
  FrameHeader header;
  ASSERT_TRUE(ParseFrameHeader(header_bytes, &header).ok());
  EXPECT_TRUE(header.is_response);
  std::vector<uint8_t> response(header.payload_size);
  ASSERT_TRUE(
      RecvAll(fd.get(), response.data(), response.size(), nullptr).ok());
  ByteReader reader(response);
  Status rpc_status;
  ASSERT_TRUE(DecodeResponseStatus(&reader, &rpc_status).ok());
  EXPECT_TRUE(rpc_status.IsCorruption());
  EXPECT_EQ(ProtocolErrors(), 0u);

  // Same connection still serves a valid request.
  ByteBuffer ping;
  EncodeFrame(MsgType::kPing, false, ByteBuffer(), &ping);
  ASSERT_TRUE(SendAll(fd.get(), ping.data().data(), ping.size()).ok());
  ASSERT_TRUE(RecvAll(fd.get(), header_bytes, kFrameHeaderSize, nullptr).ok());
  ASSERT_TRUE(ParseFrameHeader(header_bytes, &header).ok());
  EXPECT_EQ(header.type, MsgType::kPing);
}

TEST_F(NetMalformedTest, HostileReplicationRequestsAnsweredNotFatal) {
  // Replication frames are reachable by any peer that can connect, so the
  // hostile shapes — a shard id engineered to wrap the follower's frontier
  // resize, a path-traversal source id — must come back as request errors
  // on a live connection, never touch the data dir, and leave the server
  // serving.
  ScopedFd fd = RawConnect();

  ReplicateBatchRequest huge_shard;
  huge_shard.source_id = "src";
  huge_shard.shard = UINT64_MAX;  // resize(shard + 1) would wrap to 0
  ByteBuffer payload;
  EncodeReplicateBatchRequest(huge_shard, &payload);
  ByteBuffer frame;
  EncodeFrame(MsgType::kReplicateBatch, false, payload, &frame);
  ASSERT_TRUE(SendAll(fd.get(), frame.data().data(), frame.size()).ok());
  EXPECT_TRUE(
      ReadResponse(fd, MsgType::kReplicateBatch).IsInvalidArgument());

  ReplicationAckRequest traversal{"../../outside"};
  ByteBuffer ack_payload;
  EncodeReplicationAckRequest(traversal, &ack_payload);
  ByteBuffer ack_frame;
  EncodeFrame(MsgType::kReplicationAck, false, ack_payload, &ack_frame);
  ASSERT_TRUE(
      SendAll(fd.get(), ack_frame.data().data(), ack_frame.size()).ok());
  EXPECT_TRUE(
      ReadResponse(fd, MsgType::kReplicationAck).IsInvalidArgument());

  // Neither request may have sprayed a cursor file into (or outside) the
  // data dir.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().filename().string().rfind("replcursor-", 0),
              std::string::npos)
        << "stray cursor file " << entry.path();
  }
  EXPECT_EQ(ProtocolErrors(), 0u);
  ExpectServerStillHealthy();
}

}  // namespace
}  // namespace backsort
