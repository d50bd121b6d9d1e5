#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/crc32.h"
#include "common/timer.h"

namespace backsort {

namespace {

/// Bytes of free frame-assembly space guaranteed before each recv.
constexpr size_t kReadChunk = 64 * 1024;

/// recv rounds per readiness event, so one fat connection cannot starve
/// its loop siblings (level-triggered epoll re-signals leftover data).
constexpr int kMaxReadRounds = 4;

/// iovec entries gathered per writev (2 per frame: header + payload).
constexpr size_t kMaxIov = 64;

/// Shrink a connection's read buffer back down once a large frame has
/// been consumed, so one historic 16 MiB frame doesn't pin that much
/// memory for the connection's lifetime.
constexpr size_t kReadBufferShrinkThreshold = 1024 * 1024;

/// Reads the loop answers itself when nothing earlier from the same
/// connection is in flight (see ParseFrames): their replies have a fixed
/// size. A query stays on the worker pool with writes, replication and
/// metrics snapshots: its work and reply grow with the range, and while
/// a large one merged and encoded on a loop, every other connection the
/// loop owns would wait (DESIGN.md §15).
bool IsLoopRead(MsgType type) {
  switch (type) {
    case MsgType::kPing:
    case MsgType::kGetLatest:
    case MsgType::kAggregateFast:
      return true;
    default:
      return false;
  }
}

}  // namespace

/// One response in a connection's pipeline, created at request-decode
/// time so responses are written in request order regardless of worker
/// completion order. The owning event loop appends/pops; whoever executes
/// the request (a worker, or the loop itself for an on-loop read) fills
/// `payload`/`header` and then publishes with the `ready` release store —
/// the loop reads them only after its acquire load.
struct BacksortServer::ResponseSlot {
  explicit ResponseSlot(MsgType t) : type(t) {}

  const MsgType type;
  std::atomic<bool> ready{false};
  uint8_t header[kFrameHeaderSize];
  ByteBuffer payload;  ///< wire status + body (CRC'd together)
  size_t offset = 0;   ///< bytes of header+payload already written

  size_t total() const { return kFrameHeaderSize + payload.size(); }
};

/// Per-connection state, owned by exactly one event loop. Workers only
/// ever touch `executing` (atomic) and the slots handed to them; all
/// other fields are loop-thread private.
struct BacksortServer::Connection {
  explicit Connection(ScopedFd fd_in) : fd(std::move(fd_in)) {}

  ScopedFd fd;
  EventLoop* loop = nullptr;

  /// Frame-assembly buffer: [rpos, wpos) holds unparsed bytes.
  std::vector<uint8_t> rbuf;
  size_t rpos = 0;
  size_t wpos = 0;

  /// Pipeline, in request order. Popped from the front once written.
  std::deque<std::unique_ptr<ResponseSlot>> slots;
  /// Requests queued or running on the worker pool for this connection.
  std::atomic<size_t> executing{0};

  bool read_paused = false;   ///< pipeline cap reached; EPOLLIN dropped
  bool draining = false;      ///< no more reads; close once slots flush
  bool want_write = false;    ///< EPOLLOUT armed (short writev)
  bool resume_parse = false;  ///< unpaused with unparsed bytes buffered

  int64_t last_activity_ms = 0;
  int64_t write_blocked_since_ms = -1;
};

/// One epoll readiness thread. Owns a disjoint subset of the connections:
/// non-blocking reads, frame parsing, request submission, on-loop reads
/// and in-order writev response flushing all happen on this thread;
/// workers hand completed slots back through PostCompletion + the eventfd.
class BacksortServer::EventLoop {
 public:
  explicit EventLoop(BacksortServer* server) : server_(server) {}

  ~EventLoop() { Join(); }

  Status Open() {
    epoll_fd_ = ScopedFd(::epoll_create1(0));
    if (!epoll_fd_.valid()) {
      return Status::IOError(std::string("epoll_create1: ") +
                             std::strerror(errno));
    }
    wake_fd_ = ScopedFd(::eventfd(0, EFD_NONBLOCK));
    if (!wake_fd_.valid()) {
      return Status::IOError(std::string("eventfd: ") +
                             std::strerror(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd_.get();
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev) !=
        0) {
      return Status::IOError(std::string("epoll_ctl(wakeup): ") +
                             std::strerror(errno));
    }
    return Status::OK();
  }

  void StartThread() {
    thread_ = std::thread([this] { Run(); });
  }

  // Both producers wake the loop only on the empty -> non-empty
  // transition: the loop swaps the whole queue out under mu_, so one
  // eventfd write covers every entry that lands before the swap. Under a
  // pipelined burst this collapses hundreds of wake syscalls into one.

  /// Accept thread: hands over a fresh (already non-blocking) socket.
  void AddConnection(ScopedFd conn) {
    bool was_empty;
    {
      std::lock_guard<std::mutex> lock(mu_);
      was_empty = incoming_.empty();
      incoming_.push_back(std::move(conn));
    }
    if (was_empty) Wake();
  }

  /// Worker threads: a slot for `conn` became ready.
  void PostCompletion(std::shared_ptr<Connection> conn) {
    bool was_empty;
    {
      std::lock_guard<std::mutex> lock(mu_);
      was_empty = completions_.empty();
      completions_.push_back(std::move(conn));
    }
    if (was_empty) Wake();
  }

  /// Stop(): server_->stopping_ is already set; just wake the loop.
  void RequestStop() { Wake(); }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Wake() {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(wake_fd_.get(), &one, sizeof(one));
  }

  void Run() {
    std::array<epoll_event, 64> events;
    while (true) {
      const int n = ::epoll_wait(epoll_fd_.get(), events.data(),
                                 static_cast<int>(events.size()), 200);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // fatal epoll failure; Stop() still joins cleanly
      }
      NetMetrics& m = server_->metrics_;
      m.event_loop_wakeups.fetch_add(1, std::memory_order_relaxed);
      if (n > 0) m.event_loop_events.Record(n);
      for (int i = 0; i < n; ++i) {
        const epoll_event& ev = events[i];
        if (ev.data.fd == wake_fd_.get()) {
          uint64_t drained = 0;
          while (::read(wake_fd_.get(), &drained, sizeof(drained)) > 0) {
          }
          continue;
        }
        auto it = conns_.find(ev.data.fd);
        if (it == conns_.end()) continue;  // closed earlier this batch
        std::shared_ptr<Connection> conn = it->second;
        if (ev.events & (EPOLLERR | EPOLLHUP)) {
          // The transport is dead in at least one direction; responses
          // can no longer be delivered reliably. A tear mid-stream is a
          // protocol error (same accounting as a failed recv); a drain
          // that was already underway is not.
          if (!conn->draining) {
            m.protocol_errors.fetch_add(1, std::memory_order_relaxed);
          }
          CloseConnection(conn);
          continue;
        }
        // ServiceBuffered, not a bare flush: if the flush drops the
        // pipeline below the cap it un-pauses reads with complete frames
        // possibly still buffered in rbuf, and only the parse loop can
        // decode those — the kernel has no residual data, so
        // level-triggered EPOLLIN would never re-fire for them.
        if (ev.events & EPOLLOUT) ServiceBuffered(conn.get());
        if (!conn->fd.valid()) continue;
        if (ev.events & (EPOLLIN | EPOLLRDHUP)) HandleReadable(conn);
      }
      HandleCompletions();
      RegisterIncoming();
      const int64_t now = MonotonicMillis();
      MaybeEnterStopping(now);
      SweepTimeouts(now);
      if (stopping_) {
        if (conns_.empty()) break;
        if (drain_deadline_ms_ >= 0 && now > drain_deadline_ms_) {
          // Drain budget exhausted: whoever still has pending bytes is
          // not consuming them. The exit cleanup below closes everything.
          break;
        }
      }
    }
    // Common exit cleanup, reached from every break (graceful drain,
    // exhausted drain budget, or a fatal epoll_wait failure). A fatal
    // failure exits before MaybeEnterStopping ever ran for this loop, so
    // the drained count must still be published here — otherwise
    // WorkerLoop's exit predicate (loops_drained_ == loops_.size()) never
    // becomes true and Stop() blocks forever joining the workers. The
    // surviving connections are closed so their sockets aren't leaked.
    if (!conns_.empty()) {
      std::vector<std::shared_ptr<Connection>> victims;
      victims.reserve(conns_.size());
      for (auto& [fd, c] : conns_) victims.push_back(c);
      for (auto& c : victims) CloseConnection(c);
    }
    if (!stopping_) {
      stopping_ = true;
      server_->loops_drained_.fetch_add(1, std::memory_order_release);
    }
  }

  void RegisterIncoming() {
    std::vector<ScopedFd> fresh;
    {
      std::lock_guard<std::mutex> lock(mu_);
      fresh.swap(incoming_);
    }
    for (ScopedFd& fd : fresh) {
      auto conn = std::make_shared<Connection>(std::move(fd));
      conn->loop = this;
      conn->last_activity_ms = MonotonicMillis();
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLRDHUP;
      ev.data.fd = conn->fd.get();
      if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, conn->fd.get(), &ev) !=
          0) {
        server_->open_connections_.fetch_sub(1, std::memory_order_relaxed);
        server_->metrics_.active_connections.fetch_sub(
            1, std::memory_order_relaxed);
        continue;  // socket closes via ScopedFd
      }
      conns_[conn->fd.get()] = conn;
      // A connection registered mid-shutdown is drained immediately: it
      // gets no service, but closes cleanly.
      if (stopping_) BeginDrain(conn.get());
    }
  }

  void HandleCompletions() {
    std::vector<std::shared_ptr<Connection>> done;
    {
      std::lock_guard<std::mutex> lock(mu_);
      done.swap(completions_);
    }
    for (auto& conn : done) {
      if (!conn->fd.valid()) continue;  // closed while the worker ran
      ServiceBuffered(conn.get());
    }
  }

  /// Parse/flush until quiescent. FlushResponses may un-pause reads with
  /// complete frames still sitting in rbuf; those must be decoded now —
  /// the kernel has no data left, so epoll would never re-signal them.
  void ServiceBuffered(Connection* conn) {
    while (conn->fd.valid()) {
      ParseFrames(conn);
      FlushResponses(conn);
      if (!conn->resume_parse) break;
      conn->resume_parse = false;
    }
  }

  void HandleReadable(const std::shared_ptr<Connection>& conn) {
    NetMetrics& m = server_->metrics_;
    for (int round = 0; round < kMaxReadRounds; ++round) {
      if (conn->draining || conn->read_paused || !conn->fd.valid()) return;
      EnsureReadCapacity(conn.get(), kReadChunk);
      const ssize_t r =
          ::recv(conn->fd.get(), conn->rbuf.data() + conn->wpos,
                 conn->rbuf.size() - conn->wpos, 0);
      if (r > 0) {
        conn->wpos += static_cast<size_t>(r);
        conn->last_activity_ms = MonotonicMillis();
        ServiceBuffered(conn.get());
        continue;
      }
      if (r == 0) {
        // Peer FIN. Between frames this is the normal end of a
        // connection; mid-frame it is a torn stream.
        if (conn->rpos != conn->wpos) {
          m.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        }
        BeginDrain(conn.get());
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // Hard transport error (e.g. ECONNRESET): same accounting as a
      // torn frame; pending responses are undeliverable.
      m.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      CloseConnection(conn);
      return;
    }
  }

  /// Decodes complete frames from rbuf into pipeline slots, answering
  /// admitted reads in place or submitting requests to the worker pool,
  /// until data runs out, the pipeline cap pauses reads, or a malformed
  /// frame starts the drain.
  void ParseFrames(Connection* conn) {
    NetMetrics& m = server_->metrics_;
    const ServerOptions& opt = server_->options_;
    // Admitted requests parsed this round, handed to the worker pool in
    // one batch at the end — one queue lock per readiness event instead
    // of one per frame. Submitting after the loop (not per frame) cannot
    // reorder: batch order preserves parse order, and response order is
    // fixed by the slots regardless.
    std::vector<Request> parsed;
    while (!conn->draining && !conn->read_paused && conn->fd.valid()) {
      const size_t avail = conn->wpos - conn->rpos;
      if (avail < kFrameHeaderSize) break;
      FrameHeader header;
      const Status st =
          ParseFrameHeader(conn->rbuf.data() + conn->rpos, &header);
      if (!st.ok() || header.is_response ||
          header.payload_size > opt.max_frame_bytes) {
        // Malformed frame mid-pipeline: responses already in flight are
        // still delivered in order; only then does the connection close.
        m.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        server_->SubmitRequests(&parsed);
        BeginDrain(conn);
        return;
      }
      const size_t frame_size = kFrameHeaderSize + header.payload_size;
      if (avail < frame_size) {
        // Partial frame: reserve the full frame contiguously up front so
        // a 16 MiB payload doesn't pay a memmove per 64 KiB chunk.
        EnsureReadCapacity(conn, frame_size - avail);
        break;
      }
      const uint8_t* payload =
          conn->rbuf.data() + conn->rpos + kFrameHeaderSize;
      if (!CheckPayloadCrc(header, payload, header.payload_size).ok()) {
        m.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        server_->SubmitRequests(&parsed);
        BeginDrain(conn);
        return;
      }
      m.bytes_in.fetch_add(frame_size, std::memory_order_relaxed);
      conn->slots.push_back(std::make_unique<ResponseSlot>(header.type));
      ResponseSlot* slot = conn->slots.back().get();
      m.pipeline_depth.Record(static_cast<int64_t>(conn->slots.size()));
      if (!server_->admission_.TryAdmit(header.payload_size)) {
        m.overload_rejections.fetch_add(1, std::memory_order_relaxed);
        CompleteSlot(slot,
                     Status::Unavailable("server overloaded: in-flight "
                                         "budget exhausted, retry with "
                                         "backoff"));
      } else if (IsLoopRead(header.type) &&
                 conn->executing.load(std::memory_order_acquire) == 0) {
        // Nothing earlier from this connection is queued or running on a
        // worker (every request in `parsed` holds an `executing` count),
        // so answering here overtakes nothing. It saves the worker wake
        // and the PostCompletion hop; the FlushResponses after this parse
        // writes the reply. This loop's other connections wait meanwhile,
        // also on the shard lock a write holds across its WAL append.
        m.requests_on_loop.fetch_add(1, std::memory_order_relaxed);
        server_->ExecuteRequest(header.type, payload, header.payload_size,
                                slot);
        slot->ready.store(true, std::memory_order_release);
      } else {
        Request request;
        request.conn = conns_.at(conn->fd.get());
        request.slot = slot;
        request.type = header.type;
        request.payload.assign(payload, payload + header.payload_size);
        conn->executing.fetch_add(1, std::memory_order_relaxed);
        parsed.push_back(std::move(request));
      }
      conn->rpos += frame_size;
      if (conn->slots.size() >= opt.max_pipeline_depth) {
        // Backpressure, not shedding: stop reading until the pipeline
        // drains below the cap; TCP flow control slows the sender.
        conn->read_paused = true;
        m.read_pauses.fetch_add(1, std::memory_order_relaxed);
        UpdateInterest(conn);
      }
    }
    server_->SubmitRequests(&parsed);
    CompactReadBuffer(conn);
  }

  /// Encodes a no-body response (shed/shutdown) into `slot` inline on the
  /// loop thread and marks it ready.
  void CompleteSlot(ResponseSlot* slot, const Status& st) {
    EncodeResponseStatus(st, &slot->payload);
    FillFrameHeader(slot);
    slot->ready.store(true, std::memory_order_release);
  }

  /// Writes the ready in-order prefix of the pipeline with gathered
  /// writev calls (header + payload iovecs per frame — the frame is
  /// never copied into a contiguous buffer).
  void FlushResponses(Connection* conn) {
    if (!conn->fd.valid()) return;
    NetMetrics& m = server_->metrics_;
    while (!conn->slots.empty()) {
      iovec iov[kMaxIov];
      size_t niov = 0;
      size_t nframes = 0;
      for (const auto& slot_ptr : conn->slots) {
        ResponseSlot* s = slot_ptr.get();
        if (!s->ready.load(std::memory_order_acquire)) break;
        if (niov + 2 > kMaxIov) break;
        const std::vector<uint8_t>& payload = s->payload.data();
        if (s->offset < kFrameHeaderSize) {
          iov[niov++] = {s->header + s->offset,
                         kFrameHeaderSize - s->offset};
          if (!payload.empty()) {
            iov[niov++] = {const_cast<uint8_t*>(payload.data()),
                           payload.size()};
          }
        } else {
          const size_t poff = s->offset - kFrameHeaderSize;
          iov[niov++] = {const_cast<uint8_t*>(payload.data()) + poff,
                         payload.size() - poff};
        }
        ++nframes;
      }
      if (nframes == 0) break;
      const ssize_t n = ::writev(conn->fd.get(), iov,
                                 static_cast<int>(niov));
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          if (!conn->want_write) {
            conn->want_write = true;
            UpdateInterest(conn);
          }
          if (conn->write_blocked_since_ms < 0) {
            conn->write_blocked_since_ms = MonotonicMillis();
          }
          return;
        }
        // Peer gone mid-response: the remaining pipeline is
        // undeliverable.
        CloseConnection(conns_.at(conn->fd.get()));
        return;
      }
      m.bytes_out.fetch_add(static_cast<uint64_t>(n),
                            std::memory_order_relaxed);
      m.writev_frames.Record(static_cast<int64_t>(nframes));
      conn->write_blocked_since_ms = -1;
      size_t left = static_cast<size_t>(n);
      while (left > 0) {
        ResponseSlot* s = conn->slots.front().get();
        const size_t take = std::min(left, s->total() - s->offset);
        s->offset += take;
        left -= take;
        if (s->offset == s->total()) conn->slots.pop_front();
      }
    }
    if (conn->slots.empty() || !conn->slots.front()->ready.load(
                                   std::memory_order_acquire)) {
      // Nothing more to write right now.
      if (conn->want_write) {
        conn->want_write = false;
        UpdateInterest(conn);
      }
      if (conn->slots.empty()) conn->write_blocked_since_ms = -1;
    }
    if (conn->slots.empty() && conn->draining &&
        conn->executing.load(std::memory_order_acquire) == 0) {
      CloseConnection(conns_.at(conn->fd.get()));
      return;
    }
    if (conn->read_paused && !conn->draining &&
        conn->slots.size() < server_->options_.max_pipeline_depth) {
      conn->read_paused = false;
      UpdateInterest(conn);
      // Frames may already be buffered; ServiceBuffered re-parses.
      if (conn->rpos != conn->wpos) conn->resume_parse = true;
    }
  }

  /// Stops reading this connection for good (malformed frame, peer EOF,
  /// shutdown drain); discards unparsed bytes; closes once the pending
  /// pipeline has flushed and every in-flight request completed.
  void BeginDrain(Connection* conn) {
    if (conn->draining || !conn->fd.valid()) return;
    conn->draining = true;
    conn->rpos = conn->wpos = 0;
    UpdateInterest(conn);
    FlushResponses(conn);  // closes now when nothing is pending
  }

  // By value on purpose: callers may pass the map element itself, which
  // the erase below would otherwise invalidate under us.
  void CloseConnection(std::shared_ptr<Connection> conn) {
    if (!conn->fd.valid()) return;
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, conn->fd.get(), nullptr);
    conns_.erase(conn->fd.get());
    conn->fd.Reset();
    server_->open_connections_.fetch_sub(1, std::memory_order_relaxed);
    server_->metrics_.active_connections.fetch_sub(
        1, std::memory_order_relaxed);
    // Workers still executing this connection's requests hold their own
    // shared_ptr; their completed slots are simply never written.
  }

  void UpdateInterest(Connection* conn) {
    epoll_event ev{};
    if (!conn->draining && !conn->read_paused) {
      ev.events |= EPOLLIN | EPOLLRDHUP;
    }
    if (conn->want_write) ev.events |= EPOLLOUT;
    ev.data.fd = conn->fd.get();
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn->fd.get(), &ev);
  }

  /// Guarantees `min_free` writable bytes after wpos, compacting the
  /// consumed prefix first and growing only when compaction is not
  /// enough.
  void EnsureReadCapacity(Connection* conn, size_t min_free) {
    if (conn->rpos == conn->wpos) conn->rpos = conn->wpos = 0;
    if (conn->rbuf.size() - conn->wpos >= min_free) return;
    if (conn->rpos > 0) {
      std::memmove(conn->rbuf.data(), conn->rbuf.data() + conn->rpos,
                   conn->wpos - conn->rpos);
      conn->wpos -= conn->rpos;
      conn->rpos = 0;
    }
    if (conn->rbuf.size() - conn->wpos < min_free) {
      conn->rbuf.resize(conn->wpos + min_free);
    }
  }

  void CompactReadBuffer(Connection* conn) {
    if (conn->rpos == conn->wpos) {
      conn->rpos = conn->wpos = 0;
      if (conn->rbuf.size() > kReadBufferShrinkThreshold) {
        conn->rbuf.resize(kReadChunk);
        conn->rbuf.shrink_to_fit();
      }
    }
  }

  void MaybeEnterStopping(int64_t now_ms) {
    if (stopping_ ||
        !server_->stopping_.load(std::memory_order_acquire)) {
      return;
    }
    stopping_ = true;
    drain_deadline_ms_ =
        now_ms + std::max(server_->options_.conn_send_timeout_ms, 100);
    std::vector<std::shared_ptr<Connection>> all;
    all.reserve(conns_.size());
    for (auto& [fd, c] : conns_) all.push_back(c);
    for (auto& c : all) BeginDrain(c.get());
    // After this point the loop decodes no new frames, so once the
    // worker queue empties it stays empty — the workers' exit predicate
    // counts drained loops.
    server_->loops_drained_.fetch_add(1, std::memory_order_release);
  }

  void SweepTimeouts(int64_t now_ms) {
    const ServerOptions& opt = server_->options_;
    std::vector<std::shared_ptr<Connection>> idle, stalled;
    for (auto& [fd, conn] : conns_) {
      if (opt.conn_recv_timeout_ms > 0 && !conn->draining &&
          conn->slots.empty() &&
          conn->executing.load(std::memory_order_acquire) == 0 &&
          now_ms - conn->last_activity_ms > opt.conn_recv_timeout_ms) {
        idle.push_back(conn);
      } else if (opt.conn_send_timeout_ms > 0 &&
                 conn->write_blocked_since_ms >= 0 &&
                 now_ms - conn->write_blocked_since_ms >
                     opt.conn_send_timeout_ms) {
        stalled.push_back(conn);
      }
    }
    for (auto& conn : idle) {
      // Same accounting as the blocking server's recv timeout.
      server_->metrics_.protocol_errors.fetch_add(
          1, std::memory_order_relaxed);
      CloseConnection(conn);
    }
    for (auto& conn : stalled) CloseConnection(conn);
  }

  /// Builds the 13-byte frame header once the payload is final.
  static void FillFrameHeader(ResponseSlot* slot);

  BacksortServer* server_;
  ScopedFd epoll_fd_;
  ScopedFd wake_fd_;
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;

  std::mutex mu_;
  std::vector<ScopedFd> incoming_;                        // guarded by mu_
  std::vector<std::shared_ptr<Connection>> completions_;  // guarded by mu_

  bool stopping_ = false;  // loop-thread local; derived from the server
  int64_t drain_deadline_ms_ = -1;
  std::thread thread_;

  friend class BacksortServer;
};

void BacksortServer::EventLoop::FillFrameHeader(ResponseSlot* slot) {
  ByteBuffer header;
  header.PutFixed32(kFrameMagic);
  header.PutU8(static_cast<uint8_t>(slot->type) | kResponseBit);
  header.PutFixed32(static_cast<uint32_t>(slot->payload.size()));
  header.PutFixed32(
      Crc32(slot->payload.data().data(), slot->payload.size()));
  std::memcpy(slot->header, header.data().data(), kFrameHeaderSize);
}

BacksortServer::BacksortServer(EngineOptions engine_options,
                               ServerOptions options)
    : engine_options_(std::move(engine_options)),
      options_(std::move(options)),
      admission_(options_.max_inflight_requests,
                 options_.max_inflight_bytes) {
  if (options_.event_loops == 0) options_.event_loops = 1;
  if (options_.workers == 0) options_.workers = 1;
  if (options_.max_pipeline_depth == 0) options_.max_pipeline_depth = 1;
}

BacksortServer::~BacksortServer() { Stop(); }

Status BacksortServer::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  engine_ = std::make_unique<StorageEngine>(engine_options_);
  Status st = engine_->Open();
  if (!st.ok()) {
    engine_.reset();
    return st;
  }
  st = listener_.Open(options_.host, options_.port,
                      /*backlog=*/128);
  if (!st.ok()) {
    engine_.reset();
    return st;
  }
  loops_.reserve(options_.event_loops);
  for (size_t i = 0; i < options_.event_loops; ++i) {
    auto loop = std::make_unique<EventLoop>(this);
    st = loop->Open();
    if (!st.ok()) {
      loops_.clear();
      listener_.Close();
      engine_.reset();
      return st;
    }
    loops_.push_back(std::move(loop));
  }
  started_ = true;
  for (auto& loop : loops_) loop->StartThread();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void BacksortServer::Stop() {
  if (!started_ || stopped_) return;
  stopping_.store(true, std::memory_order_release);
  // Wake the accept loop without closing the listener fd — the accept
  // thread still reads it until joined below.
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  // Event loops drain: stop decoding, let queued requests execute, flush
  // every pending response (bounded by conn_send_timeout_ms), close.
  for (auto& loop : loops_) loop->RequestStop();
  for (auto& loop : loops_) loop->Join();
  // With every loop drained no new requests can arrive; wake the workers
  // so they observe the exit predicate once the queue is empty. The empty
  // critical section orders the drained/stopping stores against a worker
  // mid-way through evaluating the wait predicate (classic lost-wakeup
  // guard).
  { std::lock_guard<std::mutex> lock(queue_mu_); }
  queue_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  stopped_ = true;
}

NetMetricsSnapshot BacksortServer::GetNetMetrics() const {
  NetMetricsSnapshot snap = metrics_.Snapshot();
  snap.inflight_requests = admission_.inflight_requests();
  snap.inflight_bytes = admission_.inflight_bytes();
  return snap;
}

std::string BacksortServer::RenderMetricsExposition() {
  MetricsRegistry registry;
  ExportEngineMetrics(engine_->GetMetricsSnapshot(), /*base_labels=*/{},
                      /*include_traces=*/false, &registry);
  ExportNetMetrics(GetNetMetrics(), /*base_labels=*/{}, &registry);
  if (extra_exporter_) extra_exporter_(&registry);
  return registry.RenderPrometheus();
}

void BacksortServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    ScopedFd conn;
    if (!listener_.Accept(&conn).ok()) {
      if (stopping_.load(std::memory_order_acquire)) break;
      continue;  // transient accept error (e.g. peer reset in the backlog)
    }
    metrics_.connections_total.fetch_add(1, std::memory_order_relaxed);
    if (open_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      // Shed at the door: more sockets than the loops should keep fair.
      // Closing is the only safe answer — registering more would hide
      // the overload from the client.
      metrics_.overload_rejections.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (!SetNonBlocking(conn.get(), true).ok()) continue;
    int one = 1;
    ::setsockopt(conn.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    open_connections_.fetch_add(1, std::memory_order_relaxed);
    metrics_.active_connections.fetch_add(1, std::memory_order_relaxed);
    loops_[next_loop_]->AddConnection(std::move(conn));
    next_loop_ = (next_loop_ + 1) % loops_.size();
  }
}

void BacksortServer::SubmitRequests(std::vector<Request>* requests) {
  if (requests->empty()) return;
  const size_t n = requests->size();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (Request& r : *requests) {
      request_queue_.push_back(std::move(r));
    }
  }
  requests->clear();
  // One wake is enough for one new request; a burst can use every worker.
  if (n == 1) {
    queue_cv_.notify_one();
  } else {
    queue_cv_.notify_all();
  }
}

void BacksortServer::WorkerLoop() {
  while (true) {
    Request request;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !request_queue_.empty() ||
               (stopping_.load(std::memory_order_acquire) &&
                loops_drained_.load(std::memory_order_acquire) ==
                    loops_.size());
      });
      if (request_queue_.empty()) return;  // stopping and fully drained
      request = std::move(request_queue_.front());
      request_queue_.pop_front();
    }
    ExecuteRequest(request.type, request.payload.data(),
                   request.payload.size(), request.slot);
    // Uncount before publishing: once the client holds this reply, its
    // connection already looks idle, so the next read can run on the loop.
    request.conn->executing.fetch_sub(1, std::memory_order_acq_rel);
    request.slot->ready.store(true, std::memory_order_release);
    request.conn->loop->PostCompletion(request.conn);
  }
}

void BacksortServer::ExecuteRequest(MsgType type, const uint8_t* payload,
                                    size_t size, ResponseSlot* slot) {
  WallTimer timer;
  // The body is encoded in place behind an OK status, so a reply is never
  // copied; on error whatever the handler appended is discarded and the
  // slot re-encoded as that error status.
  EncodeResponseStatus(Status::OK(), &slot->payload);
  const Status rpc = Dispatch(type, payload, size, &slot->payload);
  if (!rpc.ok()) {
    slot->payload.Clear();
    EncodeResponseStatus(rpc, &slot->payload);
  }
  // Count before the caller publishes the slot: a client that has
  // received its reply must be able to observe the incremented counter in
  // a snapshot.
  const size_t idx = MsgTypeIndex(type);
  metrics_.requests_total[idx].fetch_add(1, std::memory_order_relaxed);
  EventLoop::FillFrameHeader(slot);
  admission_.Release(size);
  metrics_.request_duration[idx].Record(timer.ElapsedNanos());
}

Status BacksortServer::Dispatch(MsgType type, const uint8_t* payload,
                                size_t size, ByteBuffer* body) {
  switch (type) {
    case MsgType::kPing:
      return Status::OK();
    case MsgType::kWriteBatch: {
      // Streaming decode: the points feed the engine as a non-owning
      // span over the payload bytes (or a bulk-relayout scratch), never
      // an owning intermediate vector.
      thread_local std::vector<TvPairDouble> scratch;
      WriteBatchView view;
      RETURN_NOT_OK(DecodeWriteBatchView(payload, size, &scratch, &view));
      const SensorSpanDouble span{&view.sensor, view.points, view.count};
      return engine_->WriteMulti(&span, 1);
    }
    case MsgType::kQuery: {
      RangeRequest req;
      RETURN_NOT_OK(DecodeRangeRequest(payload, size, &req));
      std::vector<TvPairDouble> points;
      RETURN_NOT_OK(engine_->Query(req.sensor, req.t_min, req.t_max, &points));
      EncodePointList(points, body);
      return Status::OK();
    }
    case MsgType::kGetLatest: {
      SensorRequest req;
      RETURN_NOT_OK(DecodeSensorRequest(payload, size, &req));
      TvPairDouble latest;
      RETURN_NOT_OK(engine_->GetLatest(req.sensor, &latest));
      EncodePoint(latest, body);
      return Status::OK();
    }
    case MsgType::kAggregateFast: {
      RangeRequest req;
      RETURN_NOT_OK(DecodeRangeRequest(payload, size, &req));
      AggregateResult result;
      RETURN_NOT_OK(engine_->AggregateFast(req.sensor, req.t_min, req.t_max,
                                           &result.stats,
                                           &result.used_fast_path));
      EncodeAggregateResult(result, body);
      return Status::OK();
    }
    case MsgType::kMetricsSnapshot: {
      body->PutLengthPrefixedString(RenderMetricsExposition());
      return Status::OK();
    }
    case MsgType::kReplicateBatch:
      return HandleReplicateBatch(payload, size, body);
    case MsgType::kReplicationAck:
      return HandleReplicationAck(payload, size, body);
  }
  // Unreachable: ParseFrameHeader rejects unknown types before dispatch.
  return Status::InvalidArgument("unhandled message type");
}

ShipFrontier& BacksortServer::LoadedFrontierLocked(
    const std::string& source_id) {
  auto it = repl_frontiers_.find(source_id);
  if (it == repl_frontiers_.end()) {
    ShipFrontier frontier;
    // A missing or damaged cursor file loads as the empty frontier; the
    // source then re-ships from its oldest segment and LWW absorbs it.
    (void)ReplicationCursorStore(engine_->options().data_dir, source_id)
        .Load(&frontier);
    it = repl_frontiers_.emplace(source_id, std::move(frontier)).first;
  }
  return it->second;
}

Status BacksortServer::HandleReplicateBatch(const uint8_t* payload,
                                            size_t size, ByteBuffer* body) {
  ReplicateBatchRequest req;
  RETURN_NOT_OK(DecodeReplicateBatchRequest(payload, size, &req));
  // The decoder already enforces both; re-checked here because the
  // frontier resize below must never run on unvalidated values.
  if (!ValidSourceId(req.source_id) || req.shard >= kMaxReplicationShards) {
    return Status::InvalidArgument("replicate batch request invalid");
  }
  // Apply in group order — consecutive same-sensor runs of the source's
  // ship stream, so per-sensor arrival order survives and a replayed
  // chunk is LWW-idempotent. WriteReplicated never re-enters this node's
  // own ship log (a two-node ring would otherwise cycle forever).
  std::vector<SensorSpanDouble> spans;
  spans.reserve(req.groups.size());
  for (const WriteBatchRequest& group : req.groups) {
    spans.push_back(
        SensorSpanDouble{&group.sensor, group.points.data(),
                         group.points.size()});
  }
  RETURN_NOT_OK(engine_->WriteReplicated(spans.data(), spans.size()));

  std::lock_guard<std::mutex> lock(repl_mu_);
  ShipFrontier& frontier = LoadedFrontierLocked(req.source_id);
  if (req.shard >= frontier.cursors.size()) {
    frontier.cursors.resize(static_cast<size_t>(req.shard) + 1);
  }
  ShipCursor& cursor = frontier.cursors[static_cast<size_t>(req.shard)];
  // Monotone advance only: a duplicate/late chunk (source retry after a
  // lost ack) must not move the durable cursor backwards.
  if (req.end.segment > cursor.segment ||
      (req.end.segment == cursor.segment && req.end.offset > cursor.offset)) {
    cursor = req.end;
    RETURN_NOT_OK(
        ReplicationCursorStore(engine_->options().data_dir, req.source_id)
            .Store(frontier));
  }
  EncodeShipCursor(cursor, body);
  return Status::OK();
}

Status BacksortServer::HandleReplicationAck(const uint8_t* payload,
                                            size_t size, ByteBuffer* body) {
  ReplicationAckRequest req;
  RETURN_NOT_OK(DecodeReplicationAckRequest(payload, size, &req));
  // Decoder-enforced; re-checked before the id reaches the cursor store
  // filename and the frontier map.
  if (!ValidSourceId(req.source_id)) {
    return Status::InvalidArgument("replication ack source id invalid");
  }
  std::lock_guard<std::mutex> lock(repl_mu_);
  EncodeShipFrontier(LoadedFrontierLocked(req.source_id), body);
  return Status::OK();
}

}  // namespace backsort
