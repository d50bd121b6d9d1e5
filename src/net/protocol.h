#ifndef BACKSORT_NET_PROTOCOL_H_
#define BACKSORT_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/range_stats.h"
#include "common/status.h"
#include "common/types.h"
#include "encoding/bytes.h"
#include "engine/wal_tailer.h"

namespace backsort {

/// Binary wire protocol of the backsort network service — the same framing
/// discipline as the WAL (length prefix + CRC32 over the payload), plus a
/// magic preamble so a connection speaking the wrong protocol is rejected
/// on its first frame. All integers are little-endian (ByteBuffer /
/// ByteReader); doubles travel as their IEEE-754 bit patterns in fixed64.
///
/// Frame layout (header is kFrameHeaderSize = 13 bytes):
///
///   [magic   : fixed32]  kFrameMagic ("BSN1")
///   [type    : u8]       MsgType; responses set kResponseBit
///   [size    : fixed32]  payload byte count (capped by the receiver)
///   [crc     : fixed32]  Crc32(payload)
///   [payload : size bytes]
///
/// Every response payload begins with a wire status (u8 code +
/// length-prefixed message); a type-specific body follows only when the
/// code is kWireOk. `kWireOverloaded` is the admission-control shed signal
/// — the request was not applied and may be retried (BacksortClient does,
/// with bounded backoff).

/// "BSN1" as a little-endian fixed32.
inline constexpr uint32_t kFrameMagic = 0x314E5342u;

/// Bytes before the payload: magic + type + size + crc.
inline constexpr size_t kFrameHeaderSize = 4 + 1 + 4 + 4;

/// Request message types. A response echoes the request type with
/// kResponseBit set.
enum class MsgType : uint8_t {
  kPing = 0x01,
  kWriteBatch = 0x02,
  kQuery = 0x03,
  kGetLatest = 0x04,
  kAggregateFast = 0x05,
  kMetricsSnapshot = 0x06,
  // Cluster replication (docs/WIRE_PROTOCOL.md §replication): a primary
  // ships chunks of its per-shard ship log to its follower and the
  // follower persists (segment, offset) cursors, so a reconnect resumes
  // exactly where the last acknowledged chunk ended.
  kReplicateBatch = 0x07,
  kReplicationAck = 0x08,
};

inline constexpr uint8_t kResponseBit = 0x80;

/// Number of request types (dense, starting at kPing = 1) — sizes the
/// per-RPC metric arrays.
inline constexpr size_t kNumMsgTypes = 8;

/// Dense [0, kNumMsgTypes) index of a request type, for metric arrays.
inline constexpr size_t MsgTypeIndex(MsgType t) {
  return static_cast<size_t>(t) - 1;
}

/// True when `raw` (with kResponseBit cleared) names a known request type.
bool ValidMsgType(uint8_t raw);

/// Metric label / log name of a request type ("write_batch", "query", ...).
const char* MsgTypeName(MsgType t);

/// Status codes as they travel on the wire.
enum class WireCode : uint8_t {
  kOk = 0,
  kOverloaded = 1,  // admission control shed the request; retryable
  kInvalidArgument = 2,
  kNotFound = 3,
  kCorruption = 4,
  kIOError = 5,
  kNotSupported = 6,
  kOutOfRange = 7,
  kInternal = 8,
};

/// Number of wire status codes (dense, starting at kOk = 0) — the docs
/// golden test walks this range against docs/WIRE_PROTOCOL.md.
inline constexpr size_t kNumWireCodes = 9;

/// Spec / log name of a wire status code ("ok", "overloaded", ...).
const char* WireCodeName(WireCode code);

/// Parsed frame header (the 13 bytes before the payload).
struct FrameHeader {
  MsgType type = MsgType::kPing;
  bool is_response = false;
  uint32_t payload_size = 0;
  uint32_t crc = 0;
};

/// Appends a whole frame (header + payload) for `type` to `out`.
void EncodeFrame(MsgType type, bool is_response, const ByteBuffer& payload,
                 ByteBuffer* out);

/// Parses the fixed-size header. Corruption on bad magic or unknown type;
/// the caller enforces its own payload-size cap and CRC check (the payload
/// has not been read yet).
Status ParseFrameHeader(const uint8_t* header, FrameHeader* out);

/// Verifies `header.crc` against the received payload bytes.
Status CheckPayloadCrc(const FrameHeader& header, const uint8_t* payload,
                       size_t size);

// --- response status --------------------------------------------------------

/// Serializes `st` as the leading wire status of a response payload.
/// Status::Unavailable maps to kWireOverloaded.
void EncodeResponseStatus(const Status& st, ByteBuffer* out);

/// Reads the leading wire status of a response payload into `rpc_status`
/// (OK when the server reported success). Returns non-OK only when the
/// bytes themselves are malformed.
Status DecodeResponseStatus(ByteReader* reader, Status* rpc_status);

// --- request payloads -------------------------------------------------------

struct WriteBatchRequest {
  std::string sensor;
  std::vector<TvPairDouble> points;
};

struct RangeRequest {  // Query and AggregateFast share this shape
  std::string sensor;
  Timestamp t_min = 0;
  Timestamp t_max = 0;
};

struct SensorRequest {  // GetLatest
  std::string sensor;
};

void EncodeWriteBatchRequest(const WriteBatchRequest& req, ByteBuffer* out);
/// Span form: encodes straight from the caller's array, so hot send
/// paths (client pipelining) skip the WriteBatchRequest vector copy.
void EncodeWriteBatchRequest(const std::string& sensor,
                             const TvPairDouble* points, size_t count,
                             ByteBuffer* out);

/// Non-owning view of a decoded WriteBatch request: `points` aliases
/// either the payload bytes themselves (the zero-copy fast path — the
/// wire point layout is exactly TvPairDouble on little-endian hosts) or
/// `scratch` when the payload happens to be misaligned / the host is
/// big-endian. Valid only while both the payload and `scratch` live.
struct WriteBatchView {
  std::string sensor;
  const TvPairDouble* points = nullptr;
  size_t count = 0;
};

/// The WriteBatch decoder: rejects a count the payload cannot hold and
/// any trailing bytes, and never materializes an owning point vector —
/// the view feeds StorageEngine::WriteMulti spans directly.
Status DecodeWriteBatchView(const uint8_t* payload, size_t size,
                            std::vector<TvPairDouble>* scratch,
                            WriteBatchView* out);

void EncodeRangeRequest(const RangeRequest& req, ByteBuffer* out);
Status DecodeRangeRequest(const uint8_t* payload, size_t size,
                          RangeRequest* out);

void EncodeSensorRequest(const SensorRequest& req, ByteBuffer* out);
Status DecodeSensorRequest(const uint8_t* payload, size_t size,
                           SensorRequest* out);

// --- replication messages ---------------------------------------------------

/// Upper bound on the shard id a ReplicateBatch may carry. The follower
/// sizes its per-source cursor frontier by shard id, so an unbounded
/// wire value would let any connected peer force a huge (or, after
/// size_t wrap, out-of-bounds) resize. Far above any real
/// EngineOptions::shard_count; documented in docs/WIRE_PROTOCOL.md.
inline constexpr uint64_t kMaxReplicationShards = 1024;

/// Byte cap on a replication source_id. The follower embeds the id in
/// its cursor filename (replcursor-<source_id>.bin) and keys its
/// in-memory frontier map by it, so ids are also restricted to
/// [A-Za-z0-9._-] (see ValidSourceId).
inline constexpr size_t kMaxSourceIdBytes = 64;

/// True when `id` is a wire-acceptable source id: non-empty, at most
/// kMaxSourceIdBytes bytes, every byte in [A-Za-z0-9._-]. Keeps path
/// separators and control bytes out of cursor filenames.
bool ValidSourceId(const std::string& id);

/// One shipped chunk of a source node's per-shard ship log (kReplicateBatch
/// request). `groups` is the chunk's flat record stream grouped into
/// consecutive same-sensor runs — a stable grouping, so the follower's
/// apply preserves the source's per-sensor write order (what LWW
/// idempotence of re-shipped records rests on). `end` is the source-side
/// cursor standing after the chunk's last frame; the follower persists it
/// per (source, shard) and returns it as the response body (ShipCursor),
/// so the source's acked frontier is always what the follower has durable.
struct ReplicateBatchRequest {
  std::string source_id;
  uint64_t shard = 0;
  ShipCursor end;
  std::vector<WriteBatchRequest> groups;
};

void EncodeReplicateBatchRequest(const ReplicateBatchRequest& req,
                                 ByteBuffer* out);
Status DecodeReplicateBatchRequest(const uint8_t* payload, size_t size,
                                   ReplicateBatchRequest* out);

/// Cursor handshake (kReplicationAck request): asks the follower for the
/// frontier it has persisted for `source_id` (empty when it never received
/// a chunk). The response body is a ShipFrontier; a (re)connecting source
/// seeks its tailer there and re-ships anything past it.
struct ReplicationAckRequest {
  std::string source_id;
};

void EncodeReplicationAckRequest(const ReplicationAckRequest& req,
                                 ByteBuffer* out);
Status DecodeReplicationAckRequest(const uint8_t* payload, size_t size,
                                   ReplicationAckRequest* out);

// ShipCursor / ShipFrontier travel with their engine-layer codec
// (EncodeShipCursor / EncodeShipFrontier in engine/wal_tailer.h).

// --- response bodies (appended after an OK wire status) ---------------------

void EncodePointList(const std::vector<TvPairDouble>& points, ByteBuffer* out);
Status DecodePointList(ByteReader* reader, std::vector<TvPairDouble>* out);

void EncodePoint(const TvPairDouble& p, ByteBuffer* out);
Status DecodePoint(ByteReader* reader, TvPairDouble* out);

struct AggregateResult {
  RangeStats stats;
  bool used_fast_path = false;
};

void EncodeAggregateResult(const AggregateResult& r, ByteBuffer* out);
Status DecodeAggregateResult(ByteReader* reader, AggregateResult* out);

}  // namespace backsort

#endif  // BACKSORT_NET_PROTOCOL_H_
