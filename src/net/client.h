#ifndef BACKSORT_NET_CLIENT_H_
#define BACKSORT_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/range_stats.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace backsort {

struct ClientOptions {
  /// Deadline for establishing the TCP connection.
  int connect_timeout_ms = 5'000;

  /// Whole-round-trip deadline per request: one budget covers the send
  /// AND the receive of the matching response, measured from the start of
  /// the call (0 = no deadline). A server that dribbles bytes forever
  /// cannot stall the client — this is a deadline, not a per-syscall
  /// idle timeout. Expiry surfaces as IOError and closes the connection,
  /// since a late response would desynchronize the stream.
  int request_timeout_ms = 10'000;

  /// Bounded retry of Overloaded responses: up to `max_retries` re-sends
  /// with doubling backoff starting at `backoff_initial_ms`. Retrying is
  /// safe — a shed request was never applied. Set max_retries = 0 to
  /// surface Overloaded to the caller immediately.
  int max_retries = 3;
  int backoff_initial_ms = 10;

  /// Backoff jitter: each retry sleeps a uniform draw from
  /// [base * (1 - j), base * (1 + j)] instead of exactly `base`, so a
  /// burst of clients shed together does not re-converge on the server in
  /// lockstep on every retry round. 0 disables; clamped to [0, 1].
  double backoff_jitter = 0.5;
};

/// Blocking-style client for the backsort wire protocol over one TCP
/// connection. Two modes:
///
///  - Call methods (Ping, WriteBatch, Query, ...): one request in flight,
///    response awaited before returning — a simple request/response pipe.
///  - Pipelining (PipelineWriteBatch + PipelineDrain): several requests
///    sent back-to-back without waiting; the server executes them on its
///    worker pool and writes the responses in request order, so a drain
///    just reads them sequentially. This is how a single connection
///    approaches in-process write throughput (bench/system_net).
///
/// Methods mirror the StorageEngine API and return the server's status
/// verbatim; Overloaded sheds come back as Status::Unavailable after
/// retries are exhausted (Call) or verbatim (pipeline, which never
/// retries). Not thread-safe — use one client per thread.
class BacksortClient {
 public:
  explicit BacksortClient(ClientOptions options = {});

  /// Connects (with the configured deadline); the socket is left
  /// non-blocking so every transfer can honor the whole-round-trip
  /// request deadline. Reconnecting an open client closes the old
  /// connection first.
  Status Connect(const std::string& host, uint16_t port);

  void Close() {
    fd_.Reset();
    pending_.clear();
    sendbuf_.Clear();
    rbuf_.clear();
    rpos_ = 0;
  }
  bool connected() const { return fd_.valid(); }

  /// Round-trip liveness probe (empty payload both ways).
  Status Ping();

  Status WriteBatch(const std::string& sensor,
                    const std::vector<TvPairDouble>& points);

  Status Query(const std::string& sensor, Timestamp t_min, Timestamp t_max,
               std::vector<TvPairDouble>* out);

  Status GetLatest(const std::string& sensor, TvPairDouble* out);

  Status AggregateFast(const std::string& sensor, Timestamp t_min,
                       Timestamp t_max, RangeStats* stats,
                       bool* used_fast_path = nullptr);

  /// Fetches the server's merged engine + net Prometheus exposition.
  Status MetricsSnapshot(std::string* exposition);

  // --- replication ------------------------------------------------------------

  /// Ships one chunk of the local ship log to the follower; on OK,
  /// `acked` is the cursor the follower has persisted (== req.end when
  /// the chunk applied). `wire_bytes` (optional) reports the encoded
  /// request payload size — the Replicator's ship_bytes metric, surfaced
  /// here so the hot path encodes each chunk exactly once. Used by the
  /// cluster Replicator.
  Status ReplicateChunk(const ReplicateBatchRequest& req, ShipCursor* acked,
                        size_t* wire_bytes = nullptr);

  /// Asks the follower for the frontier it has persisted for `source_id`
  /// (empty when it never received a chunk) — the reconnect handshake.
  Status FetchReplicationCursor(const std::string& source_id,
                                ShipFrontier* frontier);

  // --- pipelining -----------------------------------------------------------

  /// Queues a WriteBatch request without waiting for its response; the
  /// response is collected (in order) by the next PipelineDrain. Frames
  /// are encoded straight into a cork buffer and flushed to the socket
  /// in bulk — when the buffer passes a threshold, or at the latest when
  /// PipelineDrain needs the responses — so a deep pipeline costs one
  /// send syscall per many requests, not per request. Only the send half
  /// is bounded by request_timeout_ms. Transport failures close the
  /// connection and discard the pipeline.
  Status PipelineWriteBatch(const std::string& sensor,
                            const std::vector<TvPairDouble>& points);

  /// Reads outstanding pipelined responses, in request order, until at
  /// most `target_depth` remain pending — 0 (the default) drains them
  /// all; `target_depth = window - 1` keeps a sliding window full
  /// instead of stop-and-waiting on whole windows. Each response gets
  /// its own request_timeout_ms receive deadline. Returns the first
  /// non-OK server status seen (still draining to the target, so the
  /// stream stays usable); a transport/framing failure closes the
  /// connection and returns immediately. No-op when `pending_` is
  /// already at or below the target.
  Status PipelineDrain(size_t target_depth = 0);

  /// Requests sent but not yet drained.
  size_t pipeline_depth() const { return pending_.size(); }

  /// Overloaded responses absorbed by retry (plus the final one when
  /// retries ran out) and Overloaded pipeline responses observed by
  /// PipelineDrain, since construction — the bench reports this.
  uint64_t overload_retries() const { return overload_retries_; }

 private:
  /// One request/response exchange with bounded Overloaded retry. On OK,
  /// `response` holds the response body bytes after the wire status.
  /// Fails with InvalidArgument while pipelined responses are pending
  /// (drain first — interleaving would mis-pair responses).
  Status Call(MsgType type, const ByteBuffer& request_payload,
              std::vector<uint8_t>* response);

  /// Sends one frame and reads the matching response under a single
  /// whole-round-trip deadline; no retry. Transport and framing failures
  /// close the connection (the stream can no longer be trusted);
  /// server-reported errors keep it open.
  Status CallOnce(MsgType type, const ByteBuffer& request_payload,
                  std::vector<uint8_t>* response);

  /// Sends one request frame, all bytes by `deadline_ms` (MonotonicMillis
  /// clock; <= 0 = none). Closes on failure.
  Status SendRequest(MsgType type, const ByteBuffer& request_payload,
                     int64_t deadline_ms);

  /// Reads one response frame of `type` by `deadline_ms`, peels the wire
  /// status and returns it; `response` (may be null) gets the body bytes.
  /// Closes on transport/framing failure.
  Status RecvResponse(MsgType type, int64_t deadline_ms,
                      std::vector<uint8_t>* response);

  /// request_timeout_ms from now as a MonotonicMillis deadline (<= 0 =
  /// none).
  int64_t RequestDeadline() const;

  /// Sends every corked pipelined frame; closes on failure. No-op when
  /// the cork buffer is empty.
  Status FlushPipeline(int64_t deadline_ms);

  /// Copies `n` bytes from the buffered receive stream into `dst`,
  /// refilling `rbuf_` with chunk-sized recvs as needed — so draining
  /// many small responses costs one syscall per chunk, not per field.
  Status RecvBuffered(void* dst, size_t n, int64_t deadline_ms);

  ClientOptions options_;
  ScopedFd fd_;
  /// Types of pipelined requests queued/sent but not yet drained, in
  /// order.
  std::deque<MsgType> pending_;
  /// Encoded-but-unsent pipelined frames (non-empty only between a
  /// PipelineWriteBatch and the flush that ships it).
  ByteBuffer sendbuf_;
  /// Buffered receive stream: rbuf_[rpos_..] holds bytes read off the
  /// socket but not yet consumed by RecvBuffered.
  std::vector<uint8_t> rbuf_;
  size_t rpos_ = 0;
  uint64_t overload_retries_ = 0;
  /// Jitter source for retry backoff (seeded per client in the ctor, so
  /// clients constructed together still draw different sleeps).
  Rng rng_;
};

}  // namespace backsort

#endif  // BACKSORT_NET_CLIENT_H_
