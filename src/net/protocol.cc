#include "net/protocol.h"

#include <cstring>

#include "common/crc32.h"

namespace backsort {

namespace {

void PutDoubleBits(double v, ByteBuffer* out) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  out->PutFixed64(bits);
}

Status GetDoubleBits(ByteReader* reader, double* out) {
  uint64_t bits = 0;
  RETURN_NOT_OK(reader->GetFixed64(&bits));
  std::memcpy(out, &bits, sizeof(*out));
  return Status::OK();
}

Status GetTimestamp(ByteReader* reader, Timestamp* out) {
  uint64_t bits = 0;
  RETURN_NOT_OK(reader->GetFixed64(&bits));
  *out = static_cast<Timestamp>(bits);
  return Status::OK();
}

WireCode StatusToWire(const Status& st) {
  switch (st.code()) {
    case Status::Code::kOk:
      return WireCode::kOk;
    case Status::Code::kUnavailable:
      return WireCode::kOverloaded;
    case Status::Code::kInvalidArgument:
      return WireCode::kInvalidArgument;
    case Status::Code::kNotFound:
      return WireCode::kNotFound;
    case Status::Code::kCorruption:
      return WireCode::kCorruption;
    case Status::Code::kIOError:
      return WireCode::kIOError;
    case Status::Code::kNotSupported:
      return WireCode::kNotSupported;
    case Status::Code::kOutOfRange:
      return WireCode::kOutOfRange;
  }
  return WireCode::kInternal;
}

Status WireToStatus(uint8_t code, std::string msg) {
  switch (static_cast<WireCode>(code)) {
    case WireCode::kOk:
      return Status::OK();
    case WireCode::kOverloaded:
      return Status::Unavailable(std::move(msg));
    case WireCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case WireCode::kNotFound:
      return Status::NotFound(std::move(msg));
    case WireCode::kCorruption:
      return Status::Corruption(std::move(msg));
    case WireCode::kIOError:
      return Status::IOError(std::move(msg));
    case WireCode::kNotSupported:
      return Status::NotSupported(std::move(msg));
    case WireCode::kOutOfRange:
      return Status::OutOfRange(std::move(msg));
    case WireCode::kInternal:
      break;
  }
  return Status::IOError("remote internal error: " + msg);
}

}  // namespace

bool ValidMsgType(uint8_t raw) {
  const uint8_t base = raw & static_cast<uint8_t>(~kResponseBit);
  return base >= static_cast<uint8_t>(MsgType::kPing) &&
         base <= static_cast<uint8_t>(MsgType::kReplicationAck);
}

const char* WireCodeName(WireCode code) {
  switch (code) {
    case WireCode::kOk:
      return "ok";
    case WireCode::kOverloaded:
      return "overloaded";
    case WireCode::kInvalidArgument:
      return "invalid_argument";
    case WireCode::kNotFound:
      return "not_found";
    case WireCode::kCorruption:
      return "corruption";
    case WireCode::kIOError:
      return "io_error";
    case WireCode::kNotSupported:
      return "not_supported";
    case WireCode::kOutOfRange:
      return "out_of_range";
    case WireCode::kInternal:
      return "internal";
  }
  return "unknown";
}

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kPing:
      return "ping";
    case MsgType::kWriteBatch:
      return "write_batch";
    case MsgType::kQuery:
      return "query";
    case MsgType::kGetLatest:
      return "get_latest";
    case MsgType::kAggregateFast:
      return "aggregate_fast";
    case MsgType::kMetricsSnapshot:
      return "metrics_snapshot";
    case MsgType::kReplicateBatch:
      return "replicate_batch";
    case MsgType::kReplicationAck:
      return "replication_ack";
  }
  return "unknown";
}

void EncodeFrame(MsgType type, bool is_response, const ByteBuffer& payload,
                 ByteBuffer* out) {
  out->PutFixed32(kFrameMagic);
  out->PutU8(static_cast<uint8_t>(type) | (is_response ? kResponseBit : 0));
  out->PutFixed32(static_cast<uint32_t>(payload.size()));
  out->PutFixed32(Crc32(payload.data().data(), payload.size()));
  out->Append(payload);
}

Status ParseFrameHeader(const uint8_t* header, FrameHeader* out) {
  ByteReader reader(header, kFrameHeaderSize);
  uint32_t magic = 0;
  RETURN_NOT_OK(reader.GetFixed32(&magic));
  if (magic != kFrameMagic) {
    return Status::Corruption("bad frame magic (not a backsort peer?)");
  }
  uint8_t raw_type = 0;
  RETURN_NOT_OK(reader.GetU8(&raw_type));
  if (!ValidMsgType(raw_type)) {
    return Status::Corruption("unknown message type " +
                              std::to_string(raw_type));
  }
  out->is_response = (raw_type & kResponseBit) != 0;
  out->type =
      static_cast<MsgType>(raw_type & static_cast<uint8_t>(~kResponseBit));
  RETURN_NOT_OK(reader.GetFixed32(&out->payload_size));
  RETURN_NOT_OK(reader.GetFixed32(&out->crc));
  return Status::OK();
}

Status CheckPayloadCrc(const FrameHeader& header, const uint8_t* payload,
                       size_t size) {
  if (Crc32(payload, size) != header.crc) {
    return Status::Corruption("frame payload CRC mismatch");
  }
  return Status::OK();
}

void EncodeResponseStatus(const Status& st, ByteBuffer* out) {
  out->PutU8(static_cast<uint8_t>(StatusToWire(st)));
  out->PutLengthPrefixedString(st.ok() ? std::string() : st.message());
}

Status DecodeResponseStatus(ByteReader* reader, Status* rpc_status) {
  uint8_t code = 0;
  RETURN_NOT_OK(reader->GetU8(&code));
  if (code > static_cast<uint8_t>(WireCode::kInternal)) {
    return Status::Corruption("unknown wire status code " +
                              std::to_string(code));
  }
  std::string msg;
  RETURN_NOT_OK(reader->GetLengthPrefixedString(&msg));
  *rpc_status = WireToStatus(code, std::move(msg));
  return Status::OK();
}

void EncodeWriteBatchRequest(const std::string& sensor,
                             const TvPairDouble* points, size_t count,
                             ByteBuffer* out) {
  out->PutLengthPrefixedString(sensor);
  out->PutVarint64(count);
  PutPoints(points, count, out);
}

void EncodeWriteBatchRequest(const WriteBatchRequest& req, ByteBuffer* out) {
  EncodeWriteBatchRequest(req.sensor, req.points.data(), req.points.size(),
                          out);
}

Status DecodeWriteBatchView(const uint8_t* payload, size_t size,
                            std::vector<TvPairDouble>* scratch,
                            WriteBatchView* out) {
  ByteReader reader(payload, size);
  RETURN_NOT_OK(reader.GetLengthPrefixedString(&out->sensor));
  uint64_t count = 0;
  RETURN_NOT_OK(reader.GetVarint64(&count));
  // Points are exactly the remaining bytes: 16 each, nothing trailing.
  // Divide instead of multiplying so an attacker-chosen count can't wrap.
  if (count > reader.remaining() / kPointBytes) {
    return Status::Corruption("write batch count exceeds payload");
  }
  if (count * kPointBytes != reader.remaining()) {
    return Status::Corruption("trailing bytes in request");
  }
  out->count = static_cast<size_t>(count);
  // An aligned little-endian payload needs no decode at all; otherwise the
  // points are copied into the caller's reusable scratch.
  const uint8_t* raw = reader.cursor();
  if (kPointsAreWireLayout &&
      reinterpret_cast<uintptr_t>(raw) % alignof(TvPairDouble) == 0) {
    out->points = reinterpret_cast<const TvPairDouble*>(raw);
    return Status::OK();
  }
  RETURN_NOT_OK(GetPoints(&reader, count, scratch));
  out->points = scratch->data();
  return Status::OK();
}

void EncodeRangeRequest(const RangeRequest& req, ByteBuffer* out) {
  out->PutLengthPrefixedString(req.sensor);
  out->PutFixed64(static_cast<uint64_t>(req.t_min));
  out->PutFixed64(static_cast<uint64_t>(req.t_max));
}

Status DecodeRangeRequest(const uint8_t* payload, size_t size,
                          RangeRequest* out) {
  ByteReader reader(payload, size);
  RETURN_NOT_OK(reader.GetLengthPrefixedString(&out->sensor));
  RETURN_NOT_OK(GetTimestamp(&reader, &out->t_min));
  RETURN_NOT_OK(GetTimestamp(&reader, &out->t_max));
  if (!reader.AtEnd()) return Status::Corruption("trailing bytes in request");
  return Status::OK();
}

void EncodeSensorRequest(const SensorRequest& req, ByteBuffer* out) {
  out->PutLengthPrefixedString(req.sensor);
}

Status DecodeSensorRequest(const uint8_t* payload, size_t size,
                           SensorRequest* out) {
  ByteReader reader(payload, size);
  RETURN_NOT_OK(reader.GetLengthPrefixedString(&out->sensor));
  if (!reader.AtEnd()) return Status::Corruption("trailing bytes in request");
  return Status::OK();
}

bool ValidSourceId(const std::string& id) {
  if (id.empty() || id.size() > kMaxSourceIdBytes) return false;
  for (const char c : id) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

void EncodeReplicateBatchRequest(const ReplicateBatchRequest& req,
                                 ByteBuffer* out) {
  out->PutLengthPrefixedString(req.source_id);
  out->PutVarint64(req.shard);
  EncodeShipCursor(req.end, out);
  out->PutVarint64(req.groups.size());
  for (const WriteBatchRequest& group : req.groups) {
    EncodeWriteBatchRequest(group, out);
  }
}

Status DecodeReplicateBatchRequest(const uint8_t* payload, size_t size,
                                   ReplicateBatchRequest* out) {
  ByteReader reader(payload, size);
  RETURN_NOT_OK(reader.GetLengthPrefixedString(&out->source_id));
  if (!ValidSourceId(out->source_id)) {
    return Status::InvalidArgument("replicate batch source id invalid");
  }
  RETURN_NOT_OK(reader.GetVarint64(&out->shard));
  // The follower sizes its cursor frontier by this id — an unbounded
  // value would be an arbitrary-resize (or size_t-wrap OOB) primitive
  // for any peer that can connect.
  if (out->shard >= kMaxReplicationShards) {
    return Status::InvalidArgument("replicate batch shard out of range");
  }
  RETURN_NOT_OK(DecodeShipCursor(&reader, &out->end));
  uint64_t group_count = 0;
  RETURN_NOT_OK(reader.GetVarint64(&group_count));
  // A group is at least a 1-byte sensor length + 1-byte point count.
  if (group_count > reader.remaining() / 2) {
    return Status::Corruption("replicate batch group count exceeds payload");
  }
  out->groups.clear();
  out->groups.resize(static_cast<size_t>(group_count));
  for (WriteBatchRequest& group : out->groups) {
    RETURN_NOT_OK(reader.GetLengthPrefixedString(&group.sensor));
    uint64_t count = 0;
    RETURN_NOT_OK(reader.GetVarint64(&count));
    RETURN_NOT_OK(GetPoints(&reader, count, &group.points));
  }
  if (!reader.AtEnd()) return Status::Corruption("trailing bytes in request");
  return Status::OK();
}

void EncodeReplicationAckRequest(const ReplicationAckRequest& req,
                                 ByteBuffer* out) {
  out->PutLengthPrefixedString(req.source_id);
}

Status DecodeReplicationAckRequest(const uint8_t* payload, size_t size,
                                   ReplicationAckRequest* out) {
  ByteReader reader(payload, size);
  RETURN_NOT_OK(reader.GetLengthPrefixedString(&out->source_id));
  if (!ValidSourceId(out->source_id)) {
    return Status::InvalidArgument("replication ack source id invalid");
  }
  if (!reader.AtEnd()) return Status::Corruption("trailing bytes in request");
  return Status::OK();
}

void EncodePointList(const std::vector<TvPairDouble>& points,
                     ByteBuffer* out) {
  out->PutVarint64(points.size());
  PutPoints(points.data(), points.size(), out);
}

Status DecodePointList(ByteReader* reader, std::vector<TvPairDouble>* out) {
  uint64_t count = 0;
  RETURN_NOT_OK(reader->GetVarint64(&count));
  return GetPoints(reader, count, out);
}

void EncodePoint(const TvPairDouble& p, ByteBuffer* out) {
  PutPoints(&p, 1, out);
}

Status DecodePoint(ByteReader* reader, TvPairDouble* out) {
  RETURN_NOT_OK(GetTimestamp(reader, &out->t));
  return GetDoubleBits(reader, &out->v);
}

void EncodeAggregateResult(const AggregateResult& r, ByteBuffer* out) {
  out->PutVarint64(r.stats.count);
  PutDoubleBits(r.stats.sum, out);
  PutDoubleBits(r.stats.min, out);
  PutDoubleBits(r.stats.max, out);
  out->PutFixed64(static_cast<uint64_t>(r.stats.first_time));
  PutDoubleBits(r.stats.first, out);
  out->PutFixed64(static_cast<uint64_t>(r.stats.last_time));
  PutDoubleBits(r.stats.last, out);
  out->PutU8(r.used_fast_path ? 1 : 0);
}

Status DecodeAggregateResult(ByteReader* reader, AggregateResult* out) {
  uint64_t count = 0;
  RETURN_NOT_OK(reader->GetVarint64(&count));
  out->stats.count = static_cast<size_t>(count);
  RETURN_NOT_OK(GetDoubleBits(reader, &out->stats.sum));
  RETURN_NOT_OK(GetDoubleBits(reader, &out->stats.min));
  RETURN_NOT_OK(GetDoubleBits(reader, &out->stats.max));
  RETURN_NOT_OK(GetTimestamp(reader, &out->stats.first_time));
  RETURN_NOT_OK(GetDoubleBits(reader, &out->stats.first));
  RETURN_NOT_OK(GetTimestamp(reader, &out->stats.last_time));
  RETURN_NOT_OK(GetDoubleBits(reader, &out->stats.last));
  uint8_t fast = 0;
  RETURN_NOT_OK(reader->GetU8(&fast));
  out->used_fast_path = fast != 0;
  return Status::OK();
}

}  // namespace backsort
