#include "net/client.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/crc32.h"

namespace backsort {

namespace {

/// The client caps a response payload well above anything the server
/// sends (a full metrics exposition or a large query result), but low
/// enough that a corrupt length field cannot trigger a huge allocation.
constexpr size_t kMaxResponseBytes = 64u << 20;

}  // namespace

BacksortClient::BacksortClient(ClientOptions options)
    : options_(options),
      rng_(static_cast<uint64_t>(
               std::chrono::steady_clock::now().time_since_epoch().count()) ^
           reinterpret_cast<uintptr_t>(this)) {}

Status BacksortClient::Connect(const std::string& host, uint16_t port) {
  Close();
  ScopedFd fd;
  RETURN_NOT_OK(TcpConnect(host, port, options_.connect_timeout_ms, &fd));
  // Non-blocking from here on: SendAllDeadline / RecvAllDeadline enforce
  // one budget across the whole transfer. (SO_RCVTIMEO would restart per
  // recv() call, so a server dribbling one byte per interval could stall
  // a "10 second" request forever.)
  RETURN_NOT_OK(SetNonBlocking(fd.get(), true));
  fd_ = std::move(fd);
  return Status::OK();
}

Status BacksortClient::Ping() {
  std::vector<uint8_t> response;
  return Call(MsgType::kPing, ByteBuffer(), &response);
}

Status BacksortClient::WriteBatch(const std::string& sensor,
                                  const std::vector<TvPairDouble>& points) {
  ByteBuffer payload;
  EncodeWriteBatchRequest(sensor, points.data(), points.size(), &payload);
  std::vector<uint8_t> response;
  return Call(MsgType::kWriteBatch, payload, &response);
}

Status BacksortClient::Query(const std::string& sensor, Timestamp t_min,
                             Timestamp t_max,
                             std::vector<TvPairDouble>* out) {
  RangeRequest req{sensor, t_min, t_max};
  ByteBuffer payload;
  EncodeRangeRequest(req, &payload);
  std::vector<uint8_t> response;
  RETURN_NOT_OK(Call(MsgType::kQuery, payload, &response));
  ByteReader reader(response);
  RETURN_NOT_OK(DecodePointList(&reader, out));
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes in query response");
  }
  return Status::OK();
}

Status BacksortClient::GetLatest(const std::string& sensor,
                                 TvPairDouble* out) {
  SensorRequest req{sensor};
  ByteBuffer payload;
  EncodeSensorRequest(req, &payload);
  std::vector<uint8_t> response;
  RETURN_NOT_OK(Call(MsgType::kGetLatest, payload, &response));
  ByteReader reader(response);
  RETURN_NOT_OK(DecodePoint(&reader, out));
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes in get-latest response");
  }
  return Status::OK();
}

Status BacksortClient::AggregateFast(const std::string& sensor,
                                     Timestamp t_min, Timestamp t_max,
                                     RangeStats* stats,
                                     bool* used_fast_path) {
  RangeRequest req{sensor, t_min, t_max};
  ByteBuffer payload;
  EncodeRangeRequest(req, &payload);
  std::vector<uint8_t> response;
  RETURN_NOT_OK(Call(MsgType::kAggregateFast, payload, &response));
  ByteReader reader(response);
  AggregateResult result;
  RETURN_NOT_OK(DecodeAggregateResult(&reader, &result));
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes in aggregate response");
  }
  *stats = result.stats;
  if (used_fast_path != nullptr) *used_fast_path = result.used_fast_path;
  return Status::OK();
}

Status BacksortClient::MetricsSnapshot(std::string* exposition) {
  std::vector<uint8_t> response;
  RETURN_NOT_OK(Call(MsgType::kMetricsSnapshot, ByteBuffer(), &response));
  ByteReader reader(response);
  RETURN_NOT_OK(reader.GetLengthPrefixedString(exposition));
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes in metrics response");
  }
  return Status::OK();
}

Status BacksortClient::ReplicateChunk(const ReplicateBatchRequest& req,
                                      ShipCursor* acked,
                                      size_t* wire_bytes) {
  ByteBuffer payload;
  EncodeReplicateBatchRequest(req, &payload);
  if (wire_bytes != nullptr) *wire_bytes = payload.size();
  std::vector<uint8_t> response;
  RETURN_NOT_OK(Call(MsgType::kReplicateBatch, payload, &response));
  ByteReader reader(response);
  RETURN_NOT_OK(DecodeShipCursor(&reader, acked));
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes in replicate response");
  }
  return Status::OK();
}

Status BacksortClient::FetchReplicationCursor(const std::string& source_id,
                                              ShipFrontier* frontier) {
  ReplicationAckRequest req{source_id};
  ByteBuffer payload;
  EncodeReplicationAckRequest(req, &payload);
  std::vector<uint8_t> response;
  RETURN_NOT_OK(Call(MsgType::kReplicationAck, payload, &response));
  ByteReader reader(response);
  RETURN_NOT_OK(DecodeShipFrontier(&reader, frontier));
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes in replication-ack response");
  }
  return Status::OK();
}

Status BacksortClient::PipelineWriteBatch(
    const std::string& sensor, const std::vector<TvPairDouble>& points) {
  if (!fd_.valid()) return Status::InvalidArgument("client not connected");
  // Encode the frame in place in the cork buffer: header with size/CRC
  // placeholders, payload straight from the caller's array, then patch
  // the two fields — no intermediate payload or frame copy.
  const size_t frame_off = sendbuf_.size();
  sendbuf_.PutFixed32(kFrameMagic);
  sendbuf_.PutU8(static_cast<uint8_t>(MsgType::kWriteBatch));
  sendbuf_.PutFixed32(0);  // payload size, patched below
  sendbuf_.PutFixed32(0);  // payload CRC, patched below
  const size_t payload_off = sendbuf_.size();
  EncodeWriteBatchRequest(sensor, points.data(), points.size(), &sendbuf_);
  const size_t payload_size = sendbuf_.size() - payload_off;
  sendbuf_.PatchFixed32(frame_off + 5, static_cast<uint32_t>(payload_size));
  sendbuf_.PatchFixed32(
      frame_off + 9,
      Crc32(sendbuf_.data().data() + payload_off, payload_size));
  pending_.push_back(MsgType::kWriteBatch);
  // Flush once the cork holds a socket-buffer-sized burst; smaller
  // residue ships when the next drain needs responses to exist.
  constexpr size_t kCorkFlushBytes = 64 * 1024;
  if (sendbuf_.size() >= kCorkFlushBytes) {
    return FlushPipeline(RequestDeadline());
  }
  return Status::OK();
}

Status BacksortClient::FlushPipeline(int64_t deadline_ms) {
  if (sendbuf_.size() == 0) return Status::OK();
  const Status st = SendAllDeadline(fd_.get(), sendbuf_.data().data(),
                                   sendbuf_.size(), deadline_ms);
  sendbuf_.Clear();
  if (!st.ok()) Close();
  return st;
}

Status BacksortClient::PipelineDrain(size_t target_depth) {
  if (pending_.size() > target_depth) {
    RETURN_NOT_OK(FlushPipeline(RequestDeadline()));
  }
  Status first;
  while (pending_.size() > target_depth) {
    const MsgType type = pending_.front();
    const Status st = RecvResponse(type, RequestDeadline(), nullptr);
    if (!connected()) return st;  // transport failure; pipeline discarded
    pending_.pop_front();
    if (st.IsUnavailable()) ++overload_retries_;
    if (first.ok() && !st.ok()) first = st;
  }
  return first;
}

Status BacksortClient::Call(MsgType type, const ByteBuffer& request_payload,
                            std::vector<uint8_t>* response) {
  if (!pending_.empty()) {
    return Status::InvalidArgument(
        "pipelined requests pending; PipelineDrain before calling");
  }
  int backoff_ms = options_.backoff_initial_ms;
  for (int attempt = 0;; ++attempt) {
    Status st = CallOnce(type, request_payload, response);
    if (!st.IsUnavailable()) return st;
    ++overload_retries_;
    if (attempt >= options_.max_retries) return st;
    // Jitter the sleep so shed clients spread out instead of re-arriving
    // in the same lockstep burst that got them shed.
    const double j = std::clamp(options_.backoff_jitter, 0.0, 1.0);
    const double factor = 1.0 - j + 2.0 * j * rng_.NextDouble();
    const auto sleep_ms =
        static_cast<int64_t>(static_cast<double>(backoff_ms) * factor);
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    backoff_ms *= 2;
  }
}

Status BacksortClient::CallOnce(MsgType type,
                                const ByteBuffer& request_payload,
                                std::vector<uint8_t>* response) {
  // One deadline spans the entire round trip: encode, send every request
  // byte AND receive every response byte.
  const int64_t deadline_ms = RequestDeadline();
  RETURN_NOT_OK(SendRequest(type, request_payload, deadline_ms));
  return RecvResponse(type, deadline_ms, response);
}

int64_t BacksortClient::RequestDeadline() const {
  return options_.request_timeout_ms > 0
             ? MonotonicMillis() + options_.request_timeout_ms
             : -1;
}

Status BacksortClient::SendRequest(MsgType type,
                                   const ByteBuffer& request_payload,
                                   int64_t deadline_ms) {
  if (!fd_.valid()) return Status::InvalidArgument("client not connected");
  ByteBuffer frame;
  EncodeFrame(type, /*is_response=*/false, request_payload, &frame);
  const Status st =
      SendAllDeadline(fd_.get(), frame.data().data(), frame.size(),
                      deadline_ms);
  if (!st.ok()) Close();
  return st;
}

Status BacksortClient::RecvBuffered(void* dst, size_t n,
                                    int64_t deadline_ms) {
  while (rbuf_.size() - rpos_ < n) {
    // Compact the consumed prefix before growing, mirroring the server's
    // EnsureReadCapacity: a long pipeline drain of many small responses
    // rarely lands on an exact frame boundary at refill time, and
    // appending forever would retain nearly every byte of the drain. The
    // unconsumed tail is at most one partial frame, so the move is cheap.
    if (rpos_ > 0) {
      rbuf_.erase(rbuf_.begin(), rbuf_.begin() + static_cast<long>(rpos_));
      rpos_ = 0;
    }
    constexpr size_t kRecvChunk = 64 * 1024;
    const size_t old = rbuf_.size();
    rbuf_.resize(old + std::max(n, kRecvChunk));
    size_t got = 0;
    const Status st = RecvSomeDeadline(fd_.get(), rbuf_.data() + old,
                                       rbuf_.size() - old, &got, deadline_ms);
    rbuf_.resize(old + got);
    RETURN_NOT_OK(st);
  }
  std::memcpy(dst, rbuf_.data() + rpos_, n);
  rpos_ += n;
  return Status::OK();
}

Status BacksortClient::RecvResponse(MsgType type, int64_t deadline_ms,
                                    std::vector<uint8_t>* response) {
  if (!fd_.valid()) return Status::InvalidArgument("client not connected");

  uint8_t header_bytes[kFrameHeaderSize];
  Status st = RecvBuffered(header_bytes, kFrameHeaderSize, deadline_ms);
  if (!st.ok()) {
    Close();
    return st;
  }
  FrameHeader header;
  st = ParseFrameHeader(header_bytes, &header);
  if (st.ok() && (!header.is_response || header.type != type)) {
    st = Status::Corruption("response frame does not match request");
  }
  if (st.ok() && header.payload_size > kMaxResponseBytes) {
    st = Status::Corruption("response payload exceeds sanity cap");
  }
  if (!st.ok()) {
    Close();
    return st;
  }
  std::vector<uint8_t> local;
  std::vector<uint8_t>* payload = response != nullptr ? response : &local;
  payload->resize(header.payload_size);
  st = RecvBuffered(payload->data(), payload->size(), deadline_ms);
  if (!st.ok()) {
    Close();
    return st;
  }
  st = CheckPayloadCrc(header, payload->data(), payload->size());
  if (!st.ok()) {
    Close();
    return st;
  }

  // Peel the leading wire status; the caller sees only the body bytes.
  ByteReader reader(*payload);
  Status rpc_status;
  st = DecodeResponseStatus(&reader, &rpc_status);
  if (!st.ok()) {
    Close();
    return st;
  }
  payload->erase(payload->begin(),
                 payload->begin() + static_cast<long>(reader.position()));
  return rpc_status;
}

}  // namespace backsort
