// Loopback server tests: a BacksortServer on an ephemeral port must give
// results bit-identical to driving the StorageEngine in-process, shed load
// with Overloaded when the admission budget is exhausted (never partially
// applying a shed request), retry transparently in the client, survive
// concurrent clients (the TSan build of this binary is the race check),
// drain in-flight requests on graceful shutdown, and answer a fixed-size
// read on the event loop only when nothing earlier from its connection is
// in flight.

#include <sys/socket.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "disorder/series_generator.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"

namespace backsort {
namespace {

// Holds the first query that reaches the engine's read path after Arm()
// until Release(): with it a test keeps a request in flight on a worker
// for as long as it needs, whatever the kernel does to its sends.
class QueryGate {
 public:
  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  void Hook() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!armed_) return;
    armed_ = false;
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }
  bool WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return entered_; });
  }
  bool held() {
    std::lock_guard<std::mutex> lock(mu_);
    return entered_ && !released_;
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool entered_ = false;
  bool released_ = false;
};

class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("net_server_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
  }
  void TearDown() override {
    gate_.Release();  // a failed assertion must not leave a worker held
    server_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void StartServer(ServerOptions server_opt = {},
                   EngineOptions engine_opt = {}) {
    engine_opt.data_dir = (dir_ / "served").string();
    server_ = std::make_unique<BacksortServer>(engine_opt, server_opt);
    ASSERT_TRUE(server_->Start().ok());
  }

  BacksortClient Connected(ClientOptions options = {}) {
    BacksortClient client(options);
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  // Starts a server whose engine runs every query through gate_.
  void StartGatedServer(ServerOptions server_opt = {}) {
    EngineOptions engine_opt;
    engine_opt.query_read_hook = [this] { gate_.Hook(); };
    StartServer(server_opt, engine_opt);
  }

  std::filesystem::path dir_;
  QueryGate gate_;
  std::unique_ptr<BacksortServer> server_;
};

TEST_F(NetServerTest, PingRoundTrip) {
  StartServer();
  BacksortClient client = Connected();
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Ping().ok());
  const NetMetricsSnapshot net = server_->GetNetMetrics();
  EXPECT_EQ(net.requests_total[MsgTypeIndex(MsgType::kPing)], 2u);
  EXPECT_EQ(net.connections_total, 1u);
}

TEST_F(NetServerTest, RequestOnUnconnectedClientFails) {
  BacksortClient client;
  EXPECT_TRUE(client.Ping().IsInvalidArgument());
}

TEST_F(NetServerTest, ResultsBitIdenticalToInProcessEngine) {
  StartServer();
  // A disordered-arrival series, the workload the engine is built for.
  Rng rng(7);
  AbsNormalDelay delay(1, 25);
  const auto series = GenerateArrivalOrderedSeries<double>(20'000, delay, rng);

  // Same points through the wire and into a local engine.
  BacksortClient client = Connected();
  EngineOptions local_opt;
  local_opt.data_dir = (dir_ / "local").string();
  StorageEngine local(local_opt);
  ASSERT_TRUE(local.Open().ok());
  const size_t batch = 500;
  for (size_t i = 0; i < series.size(); i += batch) {
    const std::vector<TvPairDouble> points(
        series.begin() + i,
        series.begin() + std::min(i + batch, series.size()));
    ASSERT_TRUE(client.WriteBatch("s", points).ok());
    ASSERT_TRUE(local.WriteBatch("s", points).ok());
  }

  // Query: every point, and a sub-range, bit-identical (same t and the
  // same IEEE-754 value bits — doubles travel as raw bits on the wire).
  const Timestamp spans[][2] = {{0, 30'000}, {1'000, 2'000}, {19'000, 30'000}};
  for (const auto& span : spans) {
    std::vector<TvPairDouble> remote, expect;
    ASSERT_TRUE(client.Query("s", span[0], span[1], &remote).ok());
    ASSERT_TRUE(local.Query("s", span[0], span[1], &expect).ok());
    ASSERT_EQ(remote.size(), expect.size());
    for (size_t i = 0; i < remote.size(); ++i) {
      ASSERT_EQ(remote[i].t, expect[i].t);
      ASSERT_EQ(std::memcmp(&remote[i].v, &expect[i].v, sizeof(double)), 0);
    }
  }

  // AggregateFast: identical stats and fast-path decision.
  TsFileReader::RangeStats remote_stats, local_stats;
  bool remote_fast = false, local_fast = false;
  ASSERT_TRUE(
      client.AggregateFast("s", 0, 30'000, &remote_stats, &remote_fast).ok());
  ASSERT_TRUE(
      local.AggregateFast("s", 0, 30'000, &local_stats, &local_fast).ok());
  EXPECT_EQ(remote_stats.count, local_stats.count);
  EXPECT_EQ(std::memcmp(&remote_stats.sum, &local_stats.sum, sizeof(double)),
            0);
  EXPECT_EQ(remote_stats.first_time, local_stats.first_time);
  EXPECT_EQ(remote_stats.last_time, local_stats.last_time);
  EXPECT_EQ(remote_fast, local_fast);

  // GetLatest: same last point.
  TvPairDouble remote_last{}, local_last{};
  ASSERT_TRUE(client.GetLatest("s", &remote_last).ok());
  ASSERT_TRUE(local.GetLatest("s", &local_last).ok());
  EXPECT_EQ(remote_last.t, local_last.t);
  EXPECT_EQ(std::memcmp(&remote_last.v, &local_last.v, sizeof(double)), 0);
}

TEST_F(NetServerTest, ServerErrorsTravelAsStatuses) {
  StartServer();
  BacksortClient client = Connected();
  TvPairDouble p{};
  EXPECT_TRUE(client.GetLatest("no.such.sensor", &p).IsNotFound());
  // The connection survives a server-side error.
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(NetServerTest, MetricsSnapshotMergesEngineAndNetFamilies) {
  StartServer();
  BacksortClient client = Connected();
  ASSERT_TRUE(client.WriteBatch("s", {{1, 1.0}, {2, 2.0}}).ok());
  std::string exposition;
  ASSERT_TRUE(client.MetricsSnapshot(&exposition).ok());
  EXPECT_NE(exposition.find("backsort_flushes_total"), std::string::npos);
  EXPECT_NE(exposition.find("backsort_net_requests_total"), std::string::npos);
  EXPECT_NE(exposition.find("type=\"write_batch\""), std::string::npos);
  EXPECT_NE(exposition.find("backsort_net_active_connections"),
            std::string::npos);
}

TEST_F(NetServerTest, OverloadShedsWithUnavailableAndNeverApplies) {
  // A byte budget smaller than the request payload can never admit it —
  // deterministic shed, no racing needed.
  ServerOptions server_opt;
  server_opt.max_inflight_bytes = 64;
  StartServer(server_opt);
  ClientOptions no_retry;
  no_retry.max_retries = 0;
  BacksortClient client = Connected(no_retry);

  std::vector<TvPairDouble> points;
  for (int i = 0; i < 100; ++i) points.push_back({i, 1.0});  // ~1.6 KB
  const Status st = client.WriteBatch("s", points);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();

  const NetMetricsSnapshot net = server_->GetNetMetrics();
  EXPECT_EQ(net.overload_rejections, 1u);
  EXPECT_EQ(net.requests_total[MsgTypeIndex(MsgType::kWriteBatch)], 0u);
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(server_->engine()->Query("s", 0, 1'000, &out).ok());
  EXPECT_TRUE(out.empty());  // a shed request is never applied

  // Small requests still go through on the same connection.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.WriteBatch("s", {{1, 1.0}}).ok());
}

TEST_F(NetServerTest, ClientRetriesOverloadWithBackoff) {
  ServerOptions server_opt;
  server_opt.max_inflight_bytes = 64;  // the batch below never fits
  StartServer(server_opt);
  ClientOptions retrying;
  retrying.max_retries = 2;
  retrying.backoff_initial_ms = 1;
  BacksortClient client = Connected(retrying);

  std::vector<TvPairDouble> points;
  for (int i = 0; i < 100; ++i) points.push_back({i, 1.0});
  EXPECT_TRUE(client.WriteBatch("s", points).IsUnavailable());
  // Initial attempt + 2 retries, each answered Overloaded.
  EXPECT_EQ(client.overload_retries(), 3u);
  EXPECT_EQ(server_->GetNetMetrics().overload_rejections, 3u);
}

TEST_F(NetServerTest, ConcurrentClientsStayBitIdentical) {
  // Run under the TSan build (build-tsan) this is the data-race check for
  // the accept loop, worker pool, admission counters and metrics.
  StartServer();
  const size_t kClients = 4;
  const size_t kPoints = 5'000;
  std::vector<std::thread> threads;
  // One byte per thread: vector<bool> would pack bits into shared words.
  std::vector<char> ok(kClients, 0);
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &ok] {
      BacksortClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) return;
      const std::string sensor = "s" + std::to_string(c);
      Rng rng(100 + c);
      AbsNormalDelay delay(1, 10);
      const auto series =
          GenerateArrivalOrderedSeries<double>(kPoints, delay, rng);
      for (size_t i = 0; i < series.size(); i += 500) {
        const std::vector<TvPairDouble> batch(
            series.begin() + i,
            series.begin() + std::min(i + 500, series.size()));
        if (!client.WriteBatch(sensor, batch).ok()) return;
      }
      if (!client.Ping().ok()) return;
      std::vector<TvPairDouble> out;
      if (!client.Query(sensor, 0, 1'000'000, &out).ok()) return;
      ok[c] = out.size() == kPoints;
    });
  }
  // Metrics scrapes race the request traffic on purpose.
  std::thread scraper([this] {
    for (int i = 0; i < 20; ++i) {
      BacksortClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) return;
      std::string exposition;
      (void)client.MetricsSnapshot(&exposition);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  for (auto& t : threads) t.join();
  scraper.join();
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_TRUE(ok[c]) << "client " << c;
  }
  // Wire results match the engine queried directly, per sensor.
  for (size_t c = 0; c < kClients; ++c) {
    std::vector<TvPairDouble> direct;
    ASSERT_TRUE(server_->engine()
                    ->Query("s" + std::to_string(c), 0, 1'000'000, &direct)
                    .ok());
    EXPECT_EQ(direct.size(), kPoints);
  }
}

TEST_F(NetServerTest, GracefulShutdownDrainsBeforeEngineTeardown) {
  StartServer();
  BacksortClient client = Connected();
  ASSERT_TRUE(client.WriteBatch("s", {{1, 1.0}, {2, 2.0}, {3, 3.0}}).ok());
  server_->Stop();
  // After Stop the engine is still alive and owns every applied write.
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(server_->engine()->Query("s", 0, 100, &out).ok());
  EXPECT_EQ(out.size(), 3u);
  // New requests on the drained connection fail cleanly (closed), they
  // don't hang.
  EXPECT_FALSE(client.Ping().ok());
  // Stop is idempotent; destruction after Stop is clean (TearDown).
  server_->Stop();
}

TEST_F(NetServerTest, StartTwiceFails) {
  StartServer();
  EXPECT_TRUE(server_->Start().IsInvalidArgument());
}

TEST_F(NetServerTest, DataSurvivesServerRestart) {
  StartServer();
  {
    BacksortClient client = Connected();
    ASSERT_TRUE(client.WriteBatch("s", {{1, 1.5}, {2, 2.5}}).ok());
  }
  server_.reset();  // graceful stop + engine shutdown (WAL/flush durable)

  EngineOptions engine_opt;
  ServerOptions server_opt;
  StartServer(server_opt, engine_opt);  // same data_dir
  BacksortClient client = Connected();
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(client.Query("s", 0, 100, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].v, 1.5);
  EXPECT_DOUBLE_EQ(out[1].v, 2.5);
}

TEST_F(NetServerTest, PipelinedWritesMatchEngineAndReportDepth) {
  StartServer();
  BacksortClient client = Connected();

  // Fill a deep pipeline of write batches, then drain: responses come
  // back in request order and every batch is applied exactly once.
  const size_t kBatches = 16;
  const size_t kPerBatch = 100;
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<TvPairDouble> points;
    points.reserve(kPerBatch);
    for (size_t i = 0; i < kPerBatch; ++i) {
      const auto t = static_cast<Timestamp>(b * kPerBatch + i);
      points.push_back({t, static_cast<double>(t) * 0.5});
    }
    ASSERT_TRUE(client.PipelineWriteBatch("s", points).ok());
  }
  EXPECT_EQ(client.pipeline_depth(), kBatches);
  ASSERT_TRUE(client.PipelineDrain().ok());
  EXPECT_EQ(client.pipeline_depth(), 0u);

  std::vector<TvPairDouble> out;
  ASSERT_TRUE(client.Query("s", 0, 10'000, &out).ok());
  ASSERT_EQ(out.size(), kBatches * kPerBatch);
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i].t, static_cast<Timestamp>(i));
    ASSERT_DOUBLE_EQ(out[i].v, static_cast<double>(i) * 0.5);
  }

  const NetMetricsSnapshot net = server_->GetNetMetrics();
  EXPECT_EQ(net.requests_total[MsgTypeIndex(MsgType::kWriteBatch)], kBatches);
  // The depth histogram samples every decoded frame. (Depth > 1 is
  // asserted deterministically in net_protocol_test's pipelining test,
  // where the frames arrive in one segment; here worker completions race
  // the decode loop.)
  EXPECT_EQ(net.pipeline_depth.count, kBatches + 1);  // writes + the query
  EXPECT_GE(net.pipeline_depth.max, 1u);
  EXPECT_GT(net.writev_frames.count, 0u);
}

TEST_F(NetServerTest, PipelineBackpressurePausesReadsInsteadOfShedding) {
  ServerOptions server_opt;
  server_opt.max_pipeline_depth = 1;  // every decoded frame hits the cap
  StartServer(server_opt);
  BacksortClient client = Connected();

  const size_t kBatches = 8;
  for (size_t b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(
        client
            .PipelineWriteBatch(
                "s", {{static_cast<Timestamp>(b), static_cast<double>(b)}})
            .ok());
  }
  ASSERT_TRUE(client.PipelineDrain().ok());

  const NetMetricsSnapshot net = server_->GetNetMetrics();
  // Backpressure, not load shedding: reads paused, nothing rejected,
  // every request applied.
  EXPECT_GE(net.read_pauses, 1u);
  EXPECT_EQ(net.overload_rejections, 0u);
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(client.Query("s", 0, 100, &out).ok());
  EXPECT_EQ(out.size(), kBatches);
}

TEST_F(NetServerTest, CallWhilePipelinePendingIsRejected) {
  StartServer();
  BacksortClient client = Connected();
  ASSERT_TRUE(client.PipelineWriteBatch("s", {{1, 1.0}}).ok());
  // A plain call would mis-pair the pipelined response; refuse it.
  EXPECT_TRUE(client.Ping().IsInvalidArgument());
  ASSERT_TRUE(client.PipelineDrain().ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(NetServerTest, ClientDeadlineCoversWholeRoundTrip) {
  // Regression: the old client applied SO_RCVTIMEO per recv() call, so a
  // server dribbling one byte per interval (each arriving "in time")
  // could stretch a 300 ms request without ever timing out. The deadline
  // must bound the whole round trip.
  TcpListener listener;
  ASSERT_TRUE(listener.Open("127.0.0.1", 0, 4).ok());
  std::thread dribbler([&listener] {
    ScopedFd conn;
    if (!listener.Accept(&conn).ok()) return;
    uint8_t request[kFrameHeaderSize];
    if (!RecvAll(conn.get(), request, sizeof(request), nullptr).ok()) return;
    ByteBuffer payload;
    EncodeResponseStatus(Status::OK(), &payload);
    ByteBuffer frame;
    EncodeFrame(MsgType::kPing, /*is_response=*/true, payload, &frame);
    // One byte per 100 ms: ~1.5 s for the full response, but every
    // individual byte lands well inside a 300 ms per-recv timeout.
    for (const uint8_t byte : frame.data()) {
      if (!SendAll(conn.get(), &byte, 1).ok()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  ClientOptions opt;
  opt.request_timeout_ms = 300;
  opt.max_retries = 0;
  BacksortClient client(opt);
  ASSERT_TRUE(client.Connect("127.0.0.1", listener.port()).ok());
  const auto start = std::chrono::steady_clock::now();
  const Status st = client.Ping();
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_FALSE(client.connected());  // a late response can't be trusted
  EXPECT_GE(elapsed_ms, 250);
  EXPECT_LT(elapsed_ms, 1'200) << "deadline did not bound the round trip";

  listener.Close();
  dribbler.join();
}

// Reads a connection's next response frame and checks it answers `type`
// with an OK status and an intact CRC.
void ExpectOkResponse(int fd, MsgType type, int64_t deadline_ms) {
  uint8_t header_bytes[kFrameHeaderSize];
  ASSERT_TRUE(RecvAllDeadline(fd, header_bytes, sizeof(header_bytes),
                              deadline_ms, nullptr)
                  .ok());
  FrameHeader header;
  ASSERT_TRUE(ParseFrameHeader(header_bytes, &header).ok());
  EXPECT_TRUE(header.is_response);
  ASSERT_EQ(header.type, type);
  std::vector<uint8_t> body(header.payload_size);
  ASSERT_TRUE(
      RecvAllDeadline(fd, body.data(), body.size(), deadline_ms, nullptr)
          .ok());
  ASSERT_TRUE(CheckPayloadCrc(header, body.data(), body.size()).ok());
  ByteReader reader(body);
  Status rpc;
  ASSERT_TRUE(DecodeResponseStatus(&reader, &rpc).ok());
  EXPECT_TRUE(rpc.ok()) << rpc.ToString();
}

TEST_F(NetServerTest, EpollOutUnpauseReparsesBufferedFrames) {
  // Regression: the EPOLLOUT path used to call the response flusher
  // directly. When that flush drained the pipeline below
  // max_pipeline_depth it cleared the read pause, but complete frames
  // already sitting in the connection's read buffer were never
  // re-parsed — the kernel had no residual data, so level-triggered
  // EPOLLIN never re-fired, and with the default idle timeout of 0 the
  // remaining pipelined requests were silently never answered. EPOLLOUT
  // must route through the same parse/flush/resume cycle as completions.
  ServerOptions server_opt;
  server_opt.event_loops = 1;
  server_opt.workers = 2;
  // Small cap: a one-segment burst of queries parks most of its frames
  // in the read buffer behind the pause.
  server_opt.max_pipeline_depth = 2;
  StartServer(server_opt);

  // A series large enough that one query response (~8 MB) overwhelms the
  // socket buffers while the client is deliberately not reading yet,
  // forcing the flush to block and resume via EPOLLOUT.
  const size_t kPoints = 500'000;
  {
    std::vector<TvPairDouble> points;
    points.reserve(kPoints);
    for (size_t i = 0; i < kPoints; ++i) {
      points.push_back({static_cast<Timestamp>(i), static_cast<double>(i)});
    }
    ASSERT_TRUE(server_->engine()->WriteBatch("s", points).ok());
  }

  // Raw socket: BacksortClient has no pipelined-query API, and the test
  // needs precise control over when reads start.
  ScopedFd fd;
  ASSERT_TRUE(TcpConnect("127.0.0.1", server_->port(), 2'000, &fd).ok());
  int rcvbuf = 64 * 1024;  // keep this side from absorbing a response
  ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));

  // The whole burst in one send: the server's first recv pulls every
  // frame into its read buffer, decodes two (the cap) and pauses reads
  // with the rest buffered.
  RangeRequest req{"s", 0, static_cast<Timestamp>(kPoints)};
  ByteBuffer payload;
  EncodeRangeRequest(req, &payload);
  const size_t kQueries = 8;
  ByteBuffer burst;
  for (size_t i = 0; i < kQueries; ++i) {
    EncodeFrame(MsgType::kQuery, /*is_response=*/false, payload, &burst);
  }
  ASSERT_TRUE(SendAll(fd.get(), burst.data().data(), burst.size()).ok());

  // Let the server decode the burst, hit the pipeline cap and block its
  // writev on the full socket buffers (arming EPOLLOUT) before reading.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Drain every response; before the fix the third never arrived.
  ASSERT_TRUE(SetNonBlocking(fd.get(), true).ok());
  const int64_t deadline_ms = MonotonicMillis() + 20'000;
  for (size_t i = 0; i < kQueries; ++i) {
    SCOPED_TRACE("response " + std::to_string(i));
    ExpectOkResponse(fd.get(), MsgType::kQuery, deadline_ms);
  }
}

TEST_F(NetServerTest, IdleConnectionReadsRunOnTheLoop) {
  StartServer();
  ASSERT_TRUE(server_->engine()->WriteBatch("s", {{1, 1.0}, {2, 2.0}}).ok());
  BacksortClient client = Connected();
  const auto on_loop = [this] {
    return server_->GetNetMetrics().requests_on_loop;
  };
  uint64_t before = on_loop();
  ASSERT_TRUE(client.Ping().ok());
  EXPECT_EQ(on_loop(), before + 1);

  before = on_loop();
  TvPairDouble latest{};
  ASSERT_TRUE(client.GetLatest("s", &latest).ok());
  EXPECT_EQ(latest.t, 2);
  EXPECT_EQ(on_loop(), before + 1);

  before = on_loop();
  TsFileReader::RangeStats stats;
  bool fast = false;
  ASSERT_TRUE(client.AggregateFast("s", 0, 10, &stats, &fast).ok());
  EXPECT_EQ(stats.count, 2u);
  EXPECT_EQ(on_loop(), before + 1);

  // A query's reply grows with its range, so it always goes to a worker.
  before = on_loop();
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(client.Query("s", 0, 10, &out).ok());
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(on_loop(), before);

  // So does a write; once its reply is back the connection is idle again,
  // so the next read runs on the loop and sees the write.
  before = on_loop();
  ASSERT_TRUE(client.WriteBatch("s", {{3, 3.0}}).ok());
  EXPECT_EQ(on_loop(), before);
  ASSERT_TRUE(client.GetLatest("s", &latest).ok());
  EXPECT_EQ(latest.t, 3);
  EXPECT_EQ(on_loop(), before + 1);
}

TEST_F(NetServerTest, QueryHeldOnAWorkerLeavesItsLoopServing) {
  // One loop owns both connections. A query that stays inside the engine
  // must hold only its worker: the loop keeps parsing and answering the
  // other connection's frames meanwhile.
  ServerOptions server_opt;
  server_opt.event_loops = 1;
  server_opt.workers = 2;
  StartGatedServer(server_opt);
  ASSERT_TRUE(server_->engine()->WriteBatch("s", {{1, 1.0}, {2, 2.0}}).ok());

  BacksortClient querier = Connected();
  gate_.Arm();
  Status query_status;
  std::vector<TvPairDouble> out;
  std::thread query([&] { query_status = querier.Query("s", 0, 10, &out); });
  EXPECT_TRUE(gate_.WaitEntered());  // no ASSERT: `query` must be joined

  // A loop blocked in the query would time these out instead.
  ClientOptions quick;
  quick.request_timeout_ms = 2'000;
  quick.max_retries = 0;
  BacksortClient other = Connected(quick);
  EXPECT_TRUE(other.Ping().ok());
  EXPECT_TRUE(other.WriteBatch("s", {{3, 3.0}}).ok());
  TvPairDouble latest{};
  EXPECT_TRUE(other.GetLatest("s", &latest).ok());
  EXPECT_EQ(latest.t, 3);
  TsFileReader::RangeStats stats;
  bool fast = false;
  EXPECT_TRUE(other.AggregateFast("s", 0, 10, &stats, &fast).ok());
  EXPECT_EQ(stats.count, 3u);
  EXPECT_TRUE(gate_.held());

  gate_.Release();
  query.join();
  ASSERT_TRUE(query_status.ok()) << query_status.ToString();
  EXPECT_EQ(out.size(), 2u);  // the snapshot taken before the write
}

// Encodes one request frame of `type` reading sensor "s" over [0, 10].
void AppendReadFrame(MsgType type, ByteBuffer* burst) {
  ByteBuffer payload;
  if (type == MsgType::kGetLatest) {
    EncodeSensorRequest(SensorRequest{"s"}, &payload);
  } else if (type != MsgType::kPing) {
    EncodeRangeRequest(RangeRequest{"s", 0, 10}, &payload);
  }
  EncodeFrame(type, /*is_response=*/false, payload, burst);
}

// Polls until `done` holds or 10 s pass; returns whether it held.
template <typename Pred>
bool Eventually(Pred done) {
  const int64_t deadline_ms = MonotonicMillis() + 10'000;
  while (!done()) {
    if (MonotonicMillis() > deadline_ms) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST_F(NetServerTest, ReadBehindInFlightRequestGoesToWorkers) {
  StartGatedServer();
  ASSERT_TRUE(server_->engine()->WriteBatch("s", {{1, 1.0}, {2, 2.0}}).ok());
  ScopedFd fd;
  ASSERT_TRUE(TcpConnect("127.0.0.1", server_->port(), 2'000, &fd).ok());

  // The query ahead of the aggregate stays in flight on a worker until
  // the gate opens, so however the kernel splits the burst, the aggregate
  // is decoded while its connection is busy.
  ByteBuffer burst;
  AppendReadFrame(MsgType::kQuery, &burst);
  AppendReadFrame(MsgType::kAggregateFast, &burst);
  const NetMetricsSnapshot before = server_->GetNetMetrics();
  gate_.Arm();
  ASSERT_TRUE(SendAll(fd.get(), burst.data().data(), burst.size()).ok());
  ASSERT_TRUE(gate_.WaitEntered());

  // A free worker answers the aggregate while the query is still held;
  // its reply waits behind the query's.
  const size_t agg = MsgTypeIndex(MsgType::kAggregateFast);
  EXPECT_TRUE(Eventually([&] {
    return server_->GetNetMetrics().requests_total[agg] ==
           before.requests_total[agg] + 1;
  }));
  EXPECT_EQ(server_->GetNetMetrics().requests_on_loop,
            before.requests_on_loop);
  gate_.Release();

  const int64_t deadline_ms = MonotonicMillis() + 10'000;
  ExpectOkResponse(fd.get(), MsgType::kQuery, deadline_ms);
  ExpectOkResponse(fd.get(), MsgType::kAggregateFast, deadline_ms);
  EXPECT_EQ(server_->GetNetMetrics().requests_on_loop,
            before.requests_on_loop);
}

TEST_F(NetServerTest, PipelinedReadBurstsAnswerInOrder) {
  ServerOptions server_opt;
  server_opt.max_pipeline_depth = 32;
  StartGatedServer(server_opt);
  ASSERT_TRUE(server_->engine()->WriteBatch("s", {{1, 1.0}, {2, 2.0}}).ok());
  ScopedFd fd;
  ASSERT_TRUE(TcpConnect("127.0.0.1", server_->port(), 2'000, &fd).ok());
  const size_t kReads = 32;
  const int64_t deadline_ms = MonotonicMillis() + 20'000;

  // 32 reads the loop can answer: with nothing ever in flight on a worker
  // each runs on the loop, in order, however the burst arrives.
  const MsgType loop_kinds[] = {MsgType::kPing, MsgType::kGetLatest,
                                MsgType::kAggregateFast};
  ByteBuffer burst;
  for (size_t i = 0; i < kReads; ++i) {
    AppendReadFrame(loop_kinds[i % std::size(loop_kinds)], &burst);
  }
  NetMetricsSnapshot before = server_->GetNetMetrics();
  ASSERT_TRUE(SendAll(fd.get(), burst.data().data(), burst.size()).ok());
  for (size_t i = 0; i < kReads; ++i) {
    ExpectOkResponse(fd.get(), loop_kinds[i % std::size(loop_kinds)],
                     deadline_ms);
  }
  NetMetricsSnapshot after = server_->GetNetMetrics();
  EXPECT_EQ(after.requests_on_loop, before.requests_on_loop + kReads);
  EXPECT_EQ(after.overload_rejections, 0u);

  // The same reads led by a held query: no reply can be written before
  // the query's, so the 32nd decoded frame fills the pipeline and pauses
  // reads. Everything behind the query goes to the workers.
  const auto kind = [&](size_t i) {
    return i == 0 ? MsgType::kQuery : loop_kinds[i % std::size(loop_kinds)];
  };
  burst.Clear();
  for (size_t i = 0; i < kReads; ++i) AppendReadFrame(kind(i), &burst);
  before = server_->GetNetMetrics();
  gate_.Arm();
  ASSERT_TRUE(SendAll(fd.get(), burst.data().data(), burst.size()).ok());
  ASSERT_TRUE(gate_.WaitEntered());
  EXPECT_TRUE(Eventually([&] {
    return server_->GetNetMetrics().read_pauses > before.read_pauses;
  }));
  gate_.Release();
  for (size_t i = 0; i < kReads; ++i) {
    ExpectOkResponse(fd.get(), kind(i), deadline_ms);
  }
  after = server_->GetNetMetrics();
  EXPECT_EQ(after.requests_on_loop, before.requests_on_loop);
  EXPECT_EQ(after.overload_rejections, 0u);
}

TEST_F(NetServerTest, ManyConnectionsFewLoopsStress) {
  // More connections than event loops and workers combined; the TSan
  // build of this binary is the race check for the loop/worker handoff.
  ServerOptions server_opt;
  server_opt.event_loops = 1;
  server_opt.workers = 2;
  StartServer(server_opt);

  const size_t kClients = 12;
  const size_t kRounds = 5;
  std::vector<std::thread> threads;
  // Not vector<bool>: its packed bits share words, so concurrent writes
  // from different client threads would be a real data race.
  std::vector<char> ok(kClients, 0);
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &ok] {
      BacksortClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) return;
      const std::string sensor = "s" + std::to_string(c);
      for (size_t r = 0; r < kRounds; ++r) {
        std::vector<TvPairDouble> points;
        for (size_t i = 0; i < 20; ++i) {
          const auto t = static_cast<Timestamp>(r * 20 + i);
          points.push_back({t, static_cast<double>(c)});
        }
        if (!client.PipelineWriteBatch(sensor, points).ok()) return;
        if (r % 2 == 1 && !client.PipelineDrain().ok()) return;
      }
      if (!client.PipelineDrain().ok()) return;
      std::vector<TvPairDouble> out;
      if (!client.Query(sensor, 0, 1'000'000, &out).ok()) return;
      if (out.size() != kRounds * 20) return;
      if (!client.Ping().ok()) return;
      ok[c] = 1;
    });
  }
  for (auto& t : threads) t.join();
  for (size_t c = 0; c < kClients; ++c) EXPECT_TRUE(ok[c]) << "client " << c;
}

}  // namespace
}  // namespace backsort
