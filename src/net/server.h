#ifndef BACKSORT_NET_SERVER_H_
#define BACKSORT_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "engine/storage_engine.h"
#include "engine/wal_tailer.h"
#include "net/admission.h"
#include "net/net_metrics.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace backsort {

/// Tuning of the TCP front door. Every field has a usable default;
/// operator-facing knobs are documented in docs/OPERATIONS.md.
struct ServerOptions {
  /// Listen address (numeric IPv4) and port; port 0 binds an ephemeral
  /// port, readable via port() after Start().
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  /// epoll readiness threads. Each connection is owned by exactly one
  /// loop, which does its non-blocking reads, frame assembly and writev
  /// response flushing. A loop also answers a fixed-size read (ping,
  /// get_latest, aggregate_fast) itself when nothing earlier from that
  /// connection is in flight. Until that read returns, the loop's other
  /// connections wait: on the shard lock, which a write holds across its
  /// WAL append (and sync, when one is due), and on the read's own page
  /// reads and merge.
  size_t event_loops = 2;

  /// Request-execution threads. Queries, writes, replication, metrics
  /// snapshots and any read queued behind an in-flight request of its
  /// connection run here, so neither a large query nor a write stalled on
  /// a flush stalls the readiness loops.
  size_t workers = 4;

  /// Accept-time cap on open connections. Beyond this the accept loop
  /// sheds at the door (closes immediately) instead of registering more
  /// sockets than the loops can keep fair.
  size_t max_connections = 1024;

  /// Admission control: in-flight request and payload-byte budgets. A
  /// request that would exceed either bound is answered with Overloaded
  /// and not applied; a payload larger than max_inflight_bytes can never
  /// be admitted.
  size_t max_inflight_requests = 64;
  size_t max_inflight_bytes = 64u << 20;

  /// Largest payload a frame header may declare; bigger is a protocol
  /// error (connection closed before any allocation).
  size_t max_frame_bytes = 16u << 20;

  /// Per-connection pipelining cap: decoded-but-unanswered requests a
  /// single connection may hold. At the cap the loop stops reading that
  /// connection (backpressure via TCP flow control) instead of shedding —
  /// admission control still bounds the global in-flight budget.
  size_t max_pipeline_depth = 32;

  /// Idle timeout: a connection with no complete frame activity for this
  /// long is closed (0 = never). Coarse-grained (checked on the event
  /// loop's periodic sweep).
  int conn_recv_timeout_ms = 0;

  /// Stalled-send bound: a connection whose pending responses make no
  /// write progress for this long is closed, so one dead client cannot
  /// pin response buffers forever. Also bounds the graceful-shutdown
  /// drain.
  int conn_send_timeout_ms = 10'000;
};

/// Event-driven TCP server exposing one StorageEngine over the CRC-framed
/// BSN1 wire protocol (net/protocol.h, spec in docs/WIRE_PROTOCOL.md). A
/// small set of epoll readiness loops own the connections: non-blocking
/// reads into per-connection frame-assembly buffers, request pipelining
/// (multiple in-flight frames per connection, responses written in
/// request order), and writev scatter/gather response flushing (header +
/// payload iovecs, no intermediate frame copy). Decoded requests execute
/// on a separate worker pool against the engine, except a fixed-size
/// read with nothing earlier from its connection in flight, which its
/// loop answers in place. Admission control sheds with Overloaded instead of queueing
/// unboundedly, the per-connection pipeline cap pushes back through TCP
/// flow control, malformed frames close only their own connection (after
/// draining the responses already in flight), and Stop() drains accepted
/// requests before the engine destructor runs. Observable via
/// `backsort_net_*` metrics merged into the engine's Prometheus exposition
/// (docs/METRICS.md).
class BacksortServer {
 public:
  /// Stores the options; the engine is built and opened by Start().
  BacksortServer(EngineOptions engine_options, ServerOptions options);

  /// Stops the service (graceful) and then destroys the engine, which
  /// drains its flush pool — so every applied write reaches the WAL/files.
  ~BacksortServer();

  BacksortServer(const BacksortServer&) = delete;
  BacksortServer& operator=(const BacksortServer&) = delete;

  /// Opens the engine, binds the listener and spawns the event loops,
  /// worker pool and accept thread. Fails without side threads on
  /// engine/bind errors.
  Status Start();

  /// Graceful shutdown, idempotent: stop accepting, stop reading new
  /// frames, execute every request already decoded, flush every pending
  /// response (bounded by conn_send_timeout_ms), join all threads. The
  /// engine stays alive for inspection until destruction.
  void Stop();

  /// Resolved listen port (after Start with port 0).
  uint16_t port() const { return listener_.port(); }

  /// The served engine; valid after a successful Start(). Tests use it to
  /// cross-check results; it must not be destroyed before the server.
  StorageEngine* engine() { return engine_.get(); }

  /// Network counters + admission gauges (thread-safe).
  NetMetricsSnapshot GetNetMetrics() const;

  /// Engine + network metrics rendered as one Prometheus exposition — the
  /// MetricsSnapshot RPC payload, also used by `bstool serve`.
  std::string RenderMetricsExposition();

  /// Registers an extra exporter merged into RenderMetricsExposition —
  /// how cluster-mode replication metrics ride along without net knowing
  /// about the cluster layer. Call before Start(); the exporter must be
  /// thread-safe (workers render concurrently).
  void SetExtraMetricsExporter(std::function<void(MetricsRegistry*)> exporter) {
    extra_exporter_ = std::move(exporter);
  }

 private:
  class EventLoop;
  struct Connection;
  struct ResponseSlot;

  /// One decoded, admitted request waiting for a worker.
  struct Request {
    std::shared_ptr<Connection> conn;
    ResponseSlot* slot = nullptr;
    MsgType type = MsgType::kPing;
    std::vector<uint8_t> payload;  ///< its size is the admitted bytes
  };

  void AcceptLoop();
  void WorkerLoop();

  /// Enqueues a batch of decoded requests for the worker pool (called by
  /// loops). One lock acquisition and one wake per parse round, however
  /// many frames a readiness event yielded.
  void SubmitRequests(std::vector<Request>* requests);

  /// Executes one admitted request on the calling thread (a worker, or
  /// the owning loop for an on-loop read): dispatch against the engine,
  /// encode the response into `slot` and release `size` admitted bytes.
  /// The caller then marks the slot ready (a worker also wakes the loop).
  void ExecuteRequest(MsgType type, const uint8_t* payload, size_t size,
                      ResponseSlot* slot);

  /// Runs the engine call for one request, appending the OK response body
  /// to `body` (the reply payload, already holding the OK status).
  Status Dispatch(MsgType type, const uint8_t* payload, size_t size,
                  ByteBuffer* body);

  /// Applies one shipped replication chunk (kReplicateBatch): decode →
  /// WriteReplicated (never re-shipped — loop prevention on a ring) →
  /// persist the per-(source, shard) cursor → respond with the stored
  /// cursor. Serialized under repl_mu_ so cursor reads/writes are atomic
  /// per source.
  Status HandleReplicateBatch(const uint8_t* payload, size_t size,
                              ByteBuffer* body);

  /// Cursor handshake (kReplicationAck): responds with the frontier this
  /// node has persisted for the requesting source (empty when none).
  Status HandleReplicationAck(const uint8_t* payload, size_t size,
                              ByteBuffer* body);

  /// Loads (lazily, once) the persisted frontier of `source_id` into
  /// repl_frontiers_ and returns it. Caller holds repl_mu_.
  ShipFrontier& LoadedFrontierLocked(const std::string& source_id);

  EngineOptions engine_options_;
  ServerOptions options_;
  std::unique_ptr<StorageEngine> engine_;
  TcpListener listener_;
  AdmissionController admission_;
  mutable NetMetrics metrics_;

  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool stopped_ = false;

  /// Open connections across all loops, for the accept-time cap.
  std::atomic<size_t> open_connections_{0};

  std::vector<std::unique_ptr<EventLoop>> loops_;
  size_t next_loop_ = 0;

  /// Loops that have entered shutdown drain (no further request
  /// submission); workers exit only once every loop has drained and the
  /// queue is empty.
  std::atomic<size_t> loops_drained_{0};

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Request> request_queue_;

  /// Merged into RenderMetricsExposition when set (cluster metrics hook).
  std::function<void(MetricsRegistry*)> extra_exporter_;

  /// Follower-side replication state: the acknowledged frontier per
  /// source node, mirrored to replcursor-<source>.bin in the engine's
  /// data dir. Guarded by repl_mu_ (replication chunks arrive one at a
  /// time per source, so this lock is never hot).
  std::mutex repl_mu_;
  std::map<std::string, ShipFrontier> repl_frontiers_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace backsort

#endif  // BACKSORT_NET_SERVER_H_
