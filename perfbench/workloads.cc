#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <thread>

#include "benchkit/digest.h"
#include "common/rng.h"
#include "net/client.h"

namespace backsort::perf {

namespace fs = std::filesystem;

namespace {

/// Read-back slice bound: 2^19 points are 8 MiB on the wire, half the
/// default frame cap.
constexpr Timestamp kReadBackSlice = Timestamp{1} << 19;

/// Read requests of the `ingest` read probes, over all set-ups and
/// connections: at least 2000 samples for the query and agg tails.
constexpr uint64_t kIngestReadProbe = 6'000;

constexpr const char* kRpcSpan[kNumRpcOps] = {"rpc.write", "rpc.query",
                                              "rpc.agg", "rpc.latest"};

/// Throughput is the median of its rates over windows of this length, so
/// a burst of background work in one window does not move the figure.
constexpr int64_t kRateWindowNs = 500'000'000;

/// Sealed memtables allowed to wait for the flush pool before FlushGate
/// holds the closed-loop writers back.
constexpr size_t kMaxQueuedFlushes = 1;

/// Holds closed-loop writers back while more than kMaxQueuedFlushes sealed
/// memtables wait for the flush pool, as a server that stalls writes
/// would. Without it the writers outrun the flush worker: the backlog and
/// the process's memory grow for the whole run, and the ingest figure
/// leaves out the flush work (Backward-Sort, encoding, file writes) it is
/// meant to include. With it the figure is the rate the engine sustains.
class FlushGate {
 public:
  explicit FlushGate(const StorageEngine* engine) {
    thread_ = std::thread([this, engine] {
      while (!stop_.load()) {
        open_.store(engine->GetMetricsSnapshot().total_queued_flushes() <=
                    kMaxQueuedFlushes);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  ~FlushGate() {
    stop_.store(true);
    thread_.join();
  }
  FlushGate(const FlushGate&) = delete;
  FlushGate& operator=(const FlushGate&) = delete;

  bool open() const { return open_.load(); }
  /// Waits until the gate opens or `deadline_ns` passes.
  void Wait(int64_t deadline_ns) const {
    while (!open_.load() && NowNs() < deadline_ns) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

 private:
  std::atomic<bool> open_{true};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// One client connection's results; merged into the PassResult after its
/// thread joins.
struct Lane {
  Tracer tracer{false};
  bool log_requests = false;
  std::array<std::vector<double>, kNumRpcOps> latency_ms;
  std::vector<Req> log;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t points = 0;
  uint64_t reads = 0;
  uint64_t agg_answers = 0;
  uint64_t agg_fast_path = 0;
  uint64_t next_request = 0;
  std::string first_error;
  std::vector<TvPairDouble> scratch;
  /// Work completed per kRateWindowNs window since window_start (0 = off).
  int64_t window_start = 0;
  std::vector<uint64_t> window_work;

  void Fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
  void Done(uint64_t work) {
    if (window_start == 0) return;
    const size_t w = static_cast<size_t>((NowNs() - window_start) / kRateWindowNs);
    if (w >= window_work.size()) window_work.resize(w + 1, 0);
    window_work[w] += work;
  }
};

Lane MakeLane(bool trace, uint64_t lane_id, int64_t window_start = 0) {
  Lane lane;
  lane.window_start = window_start;
  lane.tracer = Tracer(trace);
  lane.log_requests = trace;
  lane.next_request = lane_id << 40;
  return lane;
}

/// Closed-loop pipelined writer on one connection: round-robin batches of
/// `sensors` with kPipelineWindow requests in flight, until `deadline_ns`
/// or until every sensor has `limit` arrivals acknowledged. While `gate`
/// is closed it drains its window and waits. A batch's latency runs from
/// its send to the drain of its response.
void PipelinedWrite(Lane* lane, uint16_t port, const StreamModel& model,
                    const std::vector<std::string>& names,
                    const std::vector<uint32_t>& sensors, uint64_t limit,
                    int64_t deadline_ns, const FlushGate& gate,
                    std::vector<std::atomic<uint64_t>>* acked) {
  BacksortClient client;
  if (Status st = client.Connect("127.0.0.1", port); !st.ok()) {
    lane->Fail("connect: " + st.ToString());
    return;
  }
  struct Inflight {
    uint32_t sensor;
    uint64_t first;
    size_t n;
    int64_t sent_ns;
    int64_t span;
  };
  std::deque<Inflight> inflight;
  std::vector<uint64_t> cursor(sensors.size());
  for (size_t i = 0; i < sensors.size(); ++i) {
    cursor[i] = (*acked)[sensors[i]].load();
  }
  bool broken = false;
  auto drain_to = [&](size_t target) {
    while (inflight.size() > target) {
      const Status st = client.PipelineDrain(inflight.size() - 1);
      const int64_t now = NowNs();
      const Inflight f = inflight.front();
      inflight.pop_front();
      lane->tracer.End(f.span);
      ++lane->attempted;
      if (!st.ok()) {
        lane->Fail("write_batch: " + st.ToString());
        if (!client.connected()) {
          lane->failed += inflight.size();
          lane->attempted += inflight.size();
          inflight.clear();
          broken = true;
        }
        continue;
      }
      lane->latency_ms[kWrite].push_back(static_cast<double>(now - f.sent_ns) / 1e6);
      (*acked)[f.sensor].store(f.first + f.n);
      lane->points += f.n;
      lane->Done(f.n);
    }
  };
  std::vector<TvPairDouble> batch;
  size_t next = 0;
  while (!broken && NowNs() < deadline_ns) {
    if (!gate.open()) {
      drain_to(0);
      gate.Wait(deadline_ns);
      continue;
    }
    size_t i = 0;
    for (; i < sensors.size(); ++i) {
      if (cursor[(next + i) % sensors.size()] < limit) break;
    }
    if (i == sensors.size()) break;  // every sensor at its limit
    const size_t slot = (next + i) % sensors.size();
    next = slot + 1;
    const uint32_t s = sensors[slot];
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(kBatchPoints, limit - cursor[slot]));
    model.FillBatch(s, cursor[slot], n, &batch);
    Inflight f{s, cursor[slot], n, NowNs(), -1};
    f.span = lane->tracer.Begin(kRpcSpan[kWrite], ++lane->next_request);
    if (Status st = client.PipelineWriteBatch(names[s], batch); !st.ok()) {
      ++lane->attempted;
      lane->Fail("pipeline send: " + st.ToString());
      lane->tracer.End(f.span);
      break;
    }
    if (lane->log_requests) {
      lane->log.push_back({kWrite, s, static_cast<int64_t>(f.first),
                           static_cast<int64_t>(n), f.sent_ns});
    }
    inflight.push_back(f);
    cursor[slot] += n;
    drain_to(kPipelineWindow - 1);
  }
  drain_to(0);
}

/// Issues one read RPC and checks its answer: with `settled` when no write
/// is in flight, else against the model. `acked` is the sensor's
/// acknowledged arrival count when the request is sent; `sent` (null when
/// no writer runs) is read after the response arrives. Returns the call's
/// own duration in ms.
double ExecuteRead(BacksortClient& client, Lane* lane, const StreamModel& model,
                   const SettledOracle* settled,
                   const std::vector<std::string>& names, const ReadOp& op,
                   uint64_t acked, const std::atomic<uint64_t>* sent) {
  Visibility vis{op.sensor, acked, acked};
  const std::string& name = names[op.sensor];
  const int64_t t0 = NowNs();
  const int64_t span = lane->tracer.Begin(kRpcSpan[op.op], ++lane->next_request);
  Status st;
  TsFileReader::RangeStats stats;
  TvPairDouble latest{};
  bool fast = false;
  switch (op.op) {
    case kQuery:
      st = client.Query(name, op.t_min, op.t_max, &lane->scratch);
      break;
    case kAgg:
      st = client.AggregateFast(name, op.t_min, op.t_max, &stats, &fast);
      break;
    default:
      st = client.GetLatest(name, &latest);
      break;
  }
  const int64_t t1 = NowNs();
  lane->tracer.End(span);
  if (sent != nullptr) vis.sent = sent->load();
  if (lane->log_requests) {
    lane->log.push_back({op.op, op.sensor, op.t_min, op.t_max, t0});
  }
  ++lane->attempted;
  ++lane->reads;
  std::string why;
  bool ok = st.ok();
  if (!ok && op.op == kLatest && st.IsNotFound() && acked == 0) {
    ok = true;  // nothing acknowledged yet: NotFound is right
  } else if (!ok) {
    why = std::string(OpName(op.op)) + ": " + st.ToString();
  } else if (op.op == kQuery) {
    ok = settled != nullptr
             ? settled->CheckQuery(op.sensor, op.t_min, op.t_max, lane->scratch, &why)
             : CheckQuery(model, vis, op.t_min, op.t_max, lane->scratch, &why);
  } else if (op.op == kAgg) {
    ok = settled != nullptr
             ? settled->CheckAggregate(op.sensor, op.t_min, op.t_max, stats, &why)
             : CheckAggregate(model, vis, op.t_min, op.t_max, stats, &why);
    ++lane->agg_answers;
    lane->agg_fast_path += fast ? 1 : 0;
  } else {
    ok = settled != nullptr ? settled->CheckLatest(op.sensor, latest, &why)
                            : CheckLatest(model, vis, latest, &why);
  }
  if (!ok) lane->Fail(names[op.sensor] + " " + why);
  lane->Done(1);
  return static_cast<double>(t1 - t0) / 1e6;
}

/// Reads every acknowledged point of `sensors` back, checked by the
/// oracle: per sensor, Query over consecutive slices of at most
/// kReadBackSlice time units, then one AggregateFast over the whole span
/// and one GetLatest.
void VerifyAll(Lane* lane, uint16_t port, const StreamModel& model,
               const SettledOracle& settled,
               const std::vector<std::string>& names,
               const std::vector<uint32_t>& sensors,
               const std::vector<std::atomic<uint64_t>>& acked) {
  BacksortClient client;
  if (Status st = client.Connect("127.0.0.1", port); !st.ok()) {
    lane->Fail("connect: " + st.ToString());
    return;
  }
  for (uint32_t s : sensors) {
    const uint64_t k = acked[s].load();
    if (k == 0) continue;
    const Timestamp hi = model.MaxTimeBefore(s, k);
    const Timestamp slices = hi / kReadBackSlice + 1;
    const Timestamp width = hi / slices + 1;
    for (Timestamp lo = 0; lo <= hi; lo += width) {
      const ReadOp slice{kQuery, s, lo, std::min(hi, lo + width - 1)};
      ExecuteRead(client, lane, model, &settled, names, slice, k, nullptr);
    }
    ExecuteRead(client, lane, model, &settled, names, {kAgg, s, 0, hi}, k, nullptr);
    ExecuteRead(client, lane, model, &settled, names, {kLatest, s, 0, 0}, k, nullptr);
  }
}

/// Closed-loop read connection over settled data: the NextReadOp requests
/// of read stream `stream` until the deadline or `max_ops` requests.
void ClosedLoopReads(Lane* lane, uint16_t port, const StreamModel& model,
                     const SettledOracle& settled,
                     const std::vector<std::string>& names,
                     const WorkloadSpec& spec, uint64_t seed, uint64_t stream,
                     int64_t deadline_ns, uint64_t max_ops,
                     const std::vector<std::atomic<uint64_t>>& acked) {
  BacksortClient client;
  if (Status st = client.Connect("127.0.0.1", port); !st.ok()) {
    lane->Fail("connect: " + st.ToString());
    return;
  }
  Rng rng = ReadRng(seed, stream);
  const Timestamp span = static_cast<Timestamp>(spec.preload_per_sensor);
  for (uint64_t i = 0; i < max_ops && NowNs() < deadline_ns; ++i) {
    const ReadOp op = NextReadOp(rng, spec, span, i);
    const double ms = ExecuteRead(client, lane, model, &settled, names, op,
                                  acked[op.sensor].load(), nullptr);
    lane->latency_ms[op.op].push_back(ms);
  }
}

/// Polls the data directory and remembers the size of every flushed file
/// (compaction outputs carry a generation suffix and are not counted), so
/// bytes written by flush survive the compaction that later deletes them.
class FlushFileMonitor {
 public:
  explicit FlushFileMonitor(std::string dir) : dir_(std::move(dir)) {
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        Poll();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }
  ~FlushFileMonitor() { Stop(); }
  FlushFileMonitor(const FlushFileMonitor&) = delete;
  FlushFileMonitor& operator=(const FlushFileMonitor&) = delete;

  /// Stops polling (after one last poll) and returns the flushed bytes.
  uint64_t Stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
      Poll();
    }
    uint64_t total = 0;
    for (const auto& [name, bytes] : sizes_) total += bytes;
    return total;
  }

 private:
  void Poll() {
    std::error_code ec;
    for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
         it.increment(ec)) {
      const std::string name = it->path().filename().string();
      if (name.size() < 5 || name.compare(name.size() - 5, 5, ".bstf") != 0 ||
          name.find('g') != std::string::npos) {
        continue;
      }
      std::error_code size_ec;
      const uintmax_t bytes = fs::file_size(it->path(), size_ec);
      if (!size_ec) sizes_[name] = std::max<uint64_t>(sizes_[name], bytes);
    }
  }

  std::string dir_;
  std::map<std::string, uint64_t> sizes_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Sealed bytes in `dir` and the largest sealed file's path.
uint64_t SealedBytes(const std::string& dir, std::string* largest) {
  uint64_t total = 0, best = 0;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() < 5 || name.compare(name.size() - 5, 5, ".bstf") != 0) {
      continue;
    }
    std::error_code size_ec;
    const uint64_t bytes = fs::file_size(it->path(), size_ec);
    if (size_ec) continue;
    total += bytes;
    if (bytes > best) {
      best = bytes;
      if (largest != nullptr) *largest = it->path().string();
    }
  }
  return total;
}

template <typename Fn>
void RunLanes(std::vector<Lane>* lanes, Fn&& fn) {
  std::vector<std::thread> threads;
  for (size_t i = 0; i < lanes->size(); ++i) {
    threads.emplace_back([&, i] { fn(&(*lanes)[i], i); });
  }
  for (std::thread& t : threads) t.join();
}

/// Sensors of connection `conn` out of `conns`: s % conns == conn.
std::vector<uint32_t> SensorsOf(uint32_t sensors, size_t conn, size_t conns) {
  std::vector<uint32_t> out;
  for (uint32_t s = 0; s < sensors; ++s) {
    if (s % conns == conn) out.push_back(s);
  }
  return out;
}

uint64_t Sum(const std::vector<Lane>& lanes, uint64_t Lane::*field) {
  uint64_t n = 0;
  for (const Lane& l : lanes) n += l.*field;
  return n;
}

/// Folds failures, spans and the request log of `lanes` into `out`; with
/// `keep_latency` their latencies become the end-to-end samples of the
/// ops they issued.
void Merge(std::vector<Lane>& lanes, bool keep_latency, PassResult* out) {
  for (Lane& l : lanes) {
    out->attempted += l.attempted;
    out->failed += l.failed;
    if (!l.first_error.empty() && out->errors.size() < 8) {
      out->errors.push_back(l.first_error);
    }
    out->tracer.Absorb(l.tracer);
    out->log.insert(out->log.end(), l.log.begin(), l.log.end());
    if (!keep_latency) continue;
    for (size_t op = 0; op < kNumRpcOps; ++op) {
      out->latency_ms[op].insert(out->latency_ms[op].end(),
                                 l.latency_ms[op].begin(),
                                 l.latency_ms[op].end());
    }
  }
}

/// Appends to `rates` the work per second the lanes completed in each
/// whole window before `end_ns` (at least one window).
void AppendWindowRates(const std::vector<Lane>& lanes, int64_t start_ns,
                       int64_t end_ns, std::vector<double>* rates) {
  const size_t windows = static_cast<size_t>((end_ns - start_ns) / kRateWindowNs);
  std::vector<double> r(std::max<size_t>(windows, 1), 0.0);
  for (const Lane& l : lanes) {
    for (size_t w = 0; w < l.window_work.size() && w < r.size(); ++w) {
      r[w] += static_cast<double>(l.window_work[w]) * 1e9 / kRateWindowNs;
    }
  }
  rates->insert(rates->end(), r.begin(), r.end());
}

/// Median of the lanes' window rates between `start_ns` and `end_ns`.
double WindowedRate(const std::vector<Lane>& lanes, int64_t start_ns,
                    int64_t end_ns) {
  std::vector<double> rates;
  AppendWindowRates(lanes, start_ns, end_ns, &rates);
  return Median(rates);
}

void LogControl(PassResult* out, bool trace, Op op) {
  if (trace) out->log.push_back({op, 0, 0, 0, NowNs()});
}

void SortLogSince(PassResult* out, size_t from) {
  std::stable_sort(out->log.begin() + static_cast<std::ptrdiff_t>(from),
                   out->log.end(), [](const Req& x, const Req& y) {
                     return x.sent_ns < y.sent_ns;
                   });
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& EndToEndMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"ingest_pts_per_s", "pts/s"}, {"read_ops_per_s", "ops/s"},
      {"query_p50_ms", "ms"},        {"agg_p50_ms", "ms"},
      {"setup_s", "s"},              {"rss_peak_mb", "MiB"},
      {"disk_bytes_per_pt", "B/pt"}};
  return kNames;
}

void EndToEndMetrics(const PassResult& r, MetricTable* out, MetricTable* info) {
  out->Set("ingest_pts_per_s", r.ingest_pts_per_s, "pts/s");
  out->Set("read_ops_per_s", r.read_ops_per_s, "ops/s");
  for (size_t op = 0; op < kNumRpcOps; ++op) {
    std::vector<double> v = r.latency_ms[op];
    const std::string name = OpName(static_cast<Op>(op));
    info->Set(name + "_p99_ms", TailLatency(v), "ms");
    const bool gated = op == kQuery || op == kAgg;
    (gated ? out : info)->Set(name + "_p50_ms", Percentile(v, 50), "ms");
  }
  std::vector<double> setup = r.setup_s;
  out->Set("setup_s", Median(setup), "s");
  out->Set("rss_peak_mb", r.rss_peak_mb, "MiB");
  out->Set("disk_bytes_per_pt", r.disk_bytes_per_pt, "B/pt");
}

Status Quiesce(StorageEngine* engine) {
  RETURN_NOT_OK(engine->FlushAll());
  for (bool performed = true; performed;) {
    RETURN_NOT_OK(engine->CompactStep(&performed));
  }
  return Status::OK();
}

const char* OpName(Op op) {
  switch (op) {
    case kWrite: return "write";
    case kQuery: return "query";
    case kAgg: return "agg";
    case kLatest: return "latest";
    case kFlushAll: return "flush_all";
    case kCompact: return "compact";
    case kQuiesce: return "quiesce";
  }
  return "?";
}

bool FindWorkload(const std::string& name, WorkloadSpec* out) {
  WorkloadSpec w;
  w.name = name;
  if (name == "ingest") {
    w.sensors = 64;
    w.delay = "AbsNormal";
    w.delay_mu = 1;
    w.delay_sigma = 10;
    w.connections = 2;
    w.preload_per_sensor = 100'000;
    w.setup_reps = 3;
  } else if (name == "read") {
    w.sensors = 16;
    w.delay = "AbsNormal";
    w.delay_mu = 1;
    w.delay_sigma = 50;
    w.connections = 2;
    w.preload_per_sensor = 400'000;
    w.compact_preload = true;
    w.setup_reps = 3;
  } else if (name == "mixed") {
    w.sensors = 16;
    w.delay = "LogNormal";
    w.delay_mu = 1;
    w.delay_sigma = 2;
    w.write_batches_per_s = 2000;
    w.reads_per_s = 500;
    // No preload: the timed phase starts from an empty server, so every
    // run sees the same flush and compaction schedule (a preloaded file
    // would join a merge at a seed-dependent point of the run).
    w.setup_reps = 7;
  } else {
    return false;
  }
  *out = w;
  return true;
}

std::unique_ptr<DelayDistribution> MakeDelay(const WorkloadSpec& spec) {
  if (spec.delay == "LogNormal") {
    return std::make_unique<LogNormalDelay>(spec.delay_mu, spec.delay_sigma);
  }
  return std::make_unique<AbsNormalDelay>(spec.delay_mu, spec.delay_sigma);
}

EngineOptions BenchEngineOptions(const std::string& dir) {
  EngineOptions o;
  o.data_dir = dir;
  o.sorter = SorterId::kBackward;
  o.compaction_enabled = true;
  return o;
}

std::string ConfigBlockJson(const WorkloadSpec& spec, uint64_t seed,
                            double seconds, const std::string& dir) {
  const EngineOptions opt = BenchEngineOptions(dir);
  // Constructing the engine resolves the auto defaults without any I/O.
  StorageEngine probe(opt);
  const CompactionConfig& cc = probe.compaction_config();
  const ServerOptions server;
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.3f, "
      "\"sensors\": %u, \"delay\": \"%s(%g,%g)\", \"batch_points\": %zu, "
      "\"connections\": %zu, \"pipeline_window\": %zu, "
      "\"preload_per_sensor\": %llu, \"offered_write_batches_per_s\": %g, "
      "\"offered_reads_per_s\": %g, \"sorter\": \"%s\", \"shards\": %zu, "
      "\"flush_workers\": %zu, \"flush_threshold_points\": %zu, "
      "\"points_per_page\": %zu, \"chunk_cache_bytes\": %zu, "
      "\"compaction\": {\"enabled\": %s, \"max_fanin\": %zu, "
      "\"tier_ratio\": %g, \"trigger_files\": %zu, \"interval_ms\": %zu}, "
      "\"wal\": {\"enabled\": %s, \"sync_every_write\": %s, \"fsync\": %s}, "
      "\"server\": {\"event_loops\": %zu, \"workers\": %zu, "
      "\"max_inflight_requests\": %zu, \"max_pipeline_depth\": %zu}}",
      spec.name.c_str(), static_cast<unsigned long long>(seed), seconds,
      spec.sensors, spec.delay.c_str(), spec.delay_mu, spec.delay_sigma,
      kBatchPoints, spec.connections, kPipelineWindow,
      static_cast<unsigned long long>(spec.preload_per_sensor),
      spec.write_batches_per_s, spec.reads_per_s,
      SorterName(opt.sorter).c_str(), probe.shard_count(),
      probe.flush_worker_count(), opt.memtable_flush_threshold,
      opt.points_per_page, probe.chunk_cache_capacity(),
      probe.compaction_enabled() ? "true" : "false", cc.max_fanin,
      cc.tier_ratio, cc.trigger_files, cc.check_interval_ms,
      opt.enable_wal ? "true" : "false",
      opt.sync_wal_every_write ? "true" : "false",
      opt.wal_fsync ? "true" : "false", server.event_loops, server.workers,
      server.max_inflight_requests, server.max_pipeline_depth);
  return buf;
}

ReadOp NextReadOp(Rng& rng, const WorkloadSpec& spec, Timestamp span,
                  uint64_t i) {
  static constexpr double kWidths[] = {0.001, 0.01, 0.1, 1.0};
  // The mix is stratified, not drawn: every 100 requests hold exactly 40
  // queries, 40 aggregates and 20 latest lookups, 80 of them on the hot
  // sensors, and the widths rotate evenly. Only sensors and positions are
  // random, so the seed does not change the mix a run measures.
  const uint64_t slot = i % 20, cycle = i / 20;
  ReadOp op;
  op.op = slot < 8 ? kQuery : slot < 16 ? kAgg : kLatest;
  const bool hot = cycle % 5 != 4;
  op.sensor = static_cast<uint32_t>(rng.NextBelow(hot ? 4 : spec.sensors));
  const uint64_t widths = op.op == kAgg ? 4 : 3;
  const Timestamp w = std::max<Timestamp>(
      1, static_cast<Timestamp>(static_cast<double>(span) *
                                kWidths[(slot + cycle) % widths]));
  op.t_min = static_cast<Timestamp>(rng.NextBelow(static_cast<uint64_t>(span - w) + 1));
  op.t_max = op.t_min + w - 1;
  return op;
}

Rng ReadRng(uint64_t seed, uint64_t stream) {
  return Rng(seed * 0x9e3779b97f4a7c15ULL + stream + 1);
}

ReadOp NextMixedReadOp(Rng& rng, const WorkloadSpec& spec) {
  ReadOp op;
  op.sensor = static_cast<uint32_t>(rng.NextBelow(spec.sensors));
  const uint64_t r = rng.NextBelow(10);
  op.op = r < 4 ? kQuery : r < 8 ? kAgg : kLatest;
  return op;
}

uint64_t RequestStreamDigest(const WorkloadSpec& spec, const StreamModel& model,
                             uint64_t seed, size_t n) {
  uint64_t h = model.Digest();
  auto fold = [&h](auto x) { h = bench::FnvBytes(&x, sizeof(x), h); };
  auto fold_op = [&](const ReadOp& op) {
    fold(static_cast<uint8_t>(op.op));
    fold(op.sensor);
    fold(op.t_min);
    fold(op.t_max);
  };
  // Writes: the first batch of every sensor in each of its first 8 blocks.
  std::vector<TvPairDouble> batch;
  for (uint32_t s = 0; s < spec.sensors; ++s) {
    for (uint64_t b = 0; b < 8; ++b) {
      model.FillBatch(s, b * StreamModel::kBlock, kBatchPoints, &batch);
      h = bench::FnvBytes(batch.data(), batch.size() * sizeof(batch[0]), h);
    }
  }
  // Reads: the first n requests of every read stream the workload issues.
  const Timestamp span = static_cast<Timestamp>(spec.preload_per_sensor);
  const size_t conns = std::max<size_t>(spec.connections, 1);
  uint64_t streams = 0;
  if (spec.name == "ingest") streams = conns * static_cast<uint64_t>(spec.setup_reps);
  if (spec.name == "read") streams = conns;
  for (uint64_t k = 0; k < streams; ++k) {
    Rng rng = ReadRng(seed, k);
    for (size_t i = 0; i < n; ++i) fold_op(NextReadOp(rng, spec, span, i));
  }
  if (spec.name == "mixed") {
    Rng rng = ReadRng(seed, kMixedReadStream);
    for (size_t i = 0; i < n; ++i) fold_op(NextMixedReadOp(rng, spec));
  }
  return h;
}

Status RunPass(const PassConfig& cfg, const StreamModel& model, PassResult* out) {
  const WorkloadSpec& spec = cfg.spec;
  const bool trace = cfg.trace;
  const std::string data_dir = cfg.dir + "/server";
  std::vector<std::string> names(spec.sensors);
  for (uint32_t s = 0; s < spec.sensors; ++s) names[s] = SensorName(s);
  std::vector<std::atomic<uint64_t>> acked(spec.sensors);
  std::vector<std::atomic<uint64_t>> sent(spec.sensors);
  std::unique_ptr<BacksortServer> server;
  std::unique_ptr<FlushFileMonitor> monitor;
  const size_t conns = std::max<size_t>(spec.connections, 1);
  uint64_t next_lane = 1;
  // Every set-up ends with the same settled preload.
  const SettledOracle preload(
      model, std::vector<uint64_t>(spec.sensors, spec.preload_per_sensor));

  // --- set-up, repeated; the last server is the one measured ---------------
  std::vector<double> load_rates, probe_rates;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    const bool last = rep + 1 == spec.setup_reps;
    monitor.reset();
    server.reset();
    std::error_code ec;
    fs::remove_all(data_dir, ec);
    for (uint32_t s = 0; s < spec.sensors; ++s) {
      acked[s].store(0);
      sent[s].store(0);
    }
    const int64_t t0 = NowNs();
    server = std::make_unique<BacksortServer>(BenchEngineOptions(data_dir),
                                              ServerOptions{});
    RETURN_NOT_OK(server->Start());
    if (trace && last) monitor = std::make_unique<FlushFileMonitor>(data_dir);
    {
      BacksortClient probe;
      RETURN_NOT_OK(probe.Connect("127.0.0.1", server->port()));
      RETURN_NOT_OK(probe.Ping());
    }
    if (spec.preload_per_sensor > 0) {
      std::vector<Lane> lanes;
      for (size_t c = 0; c < conns; ++c) lanes.push_back(MakeLane(trace && last, next_lane++));
      const int64_t load0 = NowNs();
      {
        const FlushGate gate(server->engine());
        RunLanes(&lanes, [&](Lane* lane, size_t c) {
          PipelinedWrite(lane, server->port(), model, names,
                         SensorsOf(spec.sensors, c, conns),
                         spec.preload_per_sensor, INT64_MAX, gate, &acked);
        });
      }
      const double load_s = static_cast<double>(NowNs() - load0) / 1e9;
      // On `read` the write metrics come from the set-up loads.
      Merge(lanes, spec.name == "read", out);
      SortLogSince(out, 0);
      // Start the timed phase from a settled server: no flush or merge of
      // the preload left running.
      if (spec.compact_preload) {
        RETURN_NOT_OK(server->engine()->FlushAll());
        LogControl(out, trace && last, kFlushAll);
        RETURN_NOT_OK(server->engine()->Compact());
        LogControl(out, trace && last, kCompact);
      } else {
        RETURN_NOT_OK(Quiesce(server->engine()));
        LogControl(out, trace && last, kQuiesce);
      }
      load_rates.push_back(static_cast<double>(Sum(lanes, &Lane::points)) / load_s);
    }
    out->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (spec.name == "ingest") {
      // The read metrics of `ingest`: a closed-loop probe of the settled
      // preload after every set-up, pooled, so the timed phase issues no
      // reads and the probe samples the host at several moments.
      StorageEngine* engine = server->engine();
      if (last) out->read_window.before = engine->GetMetricsSnapshot();
      const int64_t p0 = NowNs();
      std::vector<Lane> lanes;
      for (size_t c = 0; c < conns; ++c) {
        lanes.push_back(MakeLane(trace && last, next_lane++, p0));
      }
      RunLanes(&lanes, [&](Lane* lane, size_t c) {
        ClosedLoopReads(lane, server->port(), model, preload, names, spec,
                        cfg.seed, rep * conns + c, INT64_MAX,
                        kIngestReadProbe / conns / spec.setup_reps, acked);
      });
      AppendWindowRates(lanes, p0, NowNs(), &probe_rates);
      if (last) {
        out->read_window.after = engine->GetMetricsSnapshot();
        out->read_window.requests = Sum(lanes, &Lane::reads);
        out->read_window.agg_answers = Sum(lanes, &Lane::agg_answers);
        out->read_window.agg_fast_path = Sum(lanes, &Lane::agg_fast_path);
      }
      Merge(lanes, true, out);
    }
  }
  out->ingest_pts_per_s = Median(load_rates);
  out->read_ops_per_s = Median(probe_rates);
  StorageEngine* engine = server->engine();
  const uint16_t port = server->port();
  for (uint32_t s = 0; s < spec.sensors; ++s) sent[s].store(acked[s].load());

  // --- measured phase --------------------------------------------------------
  std::fprintf(stderr, "%s: set-up %.3f s\n", spec.name.c_str(),
               out->setup_s.back());
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(cfg.seconds * 1e9);
  const size_t log_from = out->log.size();
  if (spec.name == "ingest") {
    std::vector<Lane> lanes;
    for (size_t c = 0; c < conns; ++c) {
      lanes.push_back(MakeLane(trace, next_lane++, start));
    }
    const FlushGate gate(engine);
    RunLanes(&lanes, [&](Lane* lane, size_t c) {
      PipelinedWrite(lane, port, model, names, SensorsOf(spec.sensors, c, conns),
                     UINT64_MAX, deadline, gate, &acked);
    });
    out->ingest_pts_per_s = WindowedRate(lanes, start, deadline);
    Merge(lanes, true, out);
  } else if (spec.name == "read") {
    out->read_window.before = engine->GetMetricsSnapshot();
    std::vector<Lane> lanes;
    for (size_t c = 0; c < conns; ++c) {
      lanes.push_back(MakeLane(trace, next_lane++, start));
    }
    RunLanes(&lanes, [&](Lane* lane, size_t c) {
      ClosedLoopReads(lane, port, model, preload, names, spec, cfg.seed, c,
                      deadline, UINT64_MAX, acked);
    });
    out->read_window.after = engine->GetMetricsSnapshot();
    out->read_window.requests = Sum(lanes, &Lane::reads);
    out->read_window.agg_answers = Sum(lanes, &Lane::agg_answers);
    out->read_window.agg_fast_path = Sum(lanes, &Lane::agg_fast_path);
    out->read_ops_per_s = WindowedRate(lanes, start, deadline);
    Merge(lanes, true, out);
  } else {
    // mixed: one open-loop writer and one open-loop reader.
    out->read_window.before = engine->GetMetricsSnapshot();
    std::vector<Lane> lanes;
    for (size_t c = 0; c < 2; ++c) lanes.push_back(MakeLane(trace, next_lane++));
    std::vector<OpTiming> write_timing, read_timing;
    std::vector<Op> read_ops;
    std::thread writer([&] {
      Lane* lane = &lanes[0];
      BacksortClient client;
      if (Status st = client.Connect("127.0.0.1", port); !st.ok()) {
        lane->Fail("connect: " + st.ToString());
        return;
      }
      std::vector<TvPairDouble> batch;
      write_timing = RunOpenLoop(spec.write_batches_per_s, cfg.seconds, [&](uint64_t i) {
        const uint32_t s = static_cast<uint32_t>(i % spec.sensors);
        const uint64_t first = sent[s].load();
        model.FillBatch(s, first, kBatchPoints, &batch);
        sent[s].store(first + kBatchPoints);
        const int64_t t0 = NowNs();
        const int64_t span = lane->tracer.Begin(kRpcSpan[kWrite], ++lane->next_request);
        const Status st = client.WriteBatch(names[s], batch);
        lane->tracer.End(span);
        ++lane->attempted;
        if (lane->log_requests) {
          lane->log.push_back({kWrite, s, static_cast<int64_t>(first),
                               static_cast<int64_t>(kBatchPoints), t0});
        }
        if (!st.ok()) {
          lane->Fail("write_batch: " + st.ToString());
          return;
        }
        acked[s].store(first + kBatchPoints);
        lane->points += kBatchPoints;
      });
    });
    std::thread reader([&] {
      Lane* lane = &lanes[1];
      BacksortClient client;
      if (Status st = client.Connect("127.0.0.1", port); !st.ok()) {
        lane->Fail("connect: " + st.ToString());
        return;
      }
      Rng rng = ReadRng(cfg.seed, kMixedReadStream);
      read_timing = RunOpenLoop(spec.reads_per_s, cfg.seconds, [&](uint64_t) {
        ReadOp op = NextMixedReadOp(rng, spec);
        const uint64_t a = acked[op.sensor].load();
        if (op.op == kQuery) {
          // The newest 2000 time units: working memtable, query-time sort.
          op.t_max = model.MaxTimeBefore(op.sensor, a);
          op.t_min = std::max<Timestamp>(0, op.t_max - 1999);
        } else if (op.op == kAgg) {
          // The newest settled 10000 time units (no point in flight).
          op.t_max = model.MinTimeFrom(op.sensor, a) - 1;
          op.t_min = std::max<Timestamp>(0, op.t_max - 9999);
        }
        ExecuteRead(client, lane, model, nullptr, names, op, a, &sent[op.sensor]);
        read_ops.push_back(op.op);
      });
    });
    writer.join();
    reader.join();
    out->read_window.after = engine->GetMetricsSnapshot();
    out->read_window.requests = lanes[1].reads;
    out->read_window.agg_answers = lanes[1].agg_answers;
    out->read_window.agg_fast_path = lanes[1].agg_fast_path;
    for (const OpTiming& t : write_timing) {
      lanes[0].latency_ms[kWrite].push_back(t.latency_ms());
      out->late_ms.push_back(t.late_ms());
    }
    for (size_t i = 0; i < read_timing.size() && i < read_ops.size(); ++i) {
      lanes[1].latency_ms[read_ops[i]].push_back(read_timing[i].latency_ms());
      out->late_ms.push_back(read_timing[i].late_ms());
    }
    // Achieved rates: work completed over the time until the last answer.
    const auto elapsed_s = [&](const std::vector<OpTiming>& t) {
      return t.empty() ? cfg.seconds
                       : static_cast<double>(t.back().done_ns - start) / 1e9;
    };
    out->ingest_pts_per_s =
        static_cast<double>(lanes[0].points) / elapsed_s(write_timing);
    out->read_ops_per_s =
        static_cast<double>(lanes[1].reads) / elapsed_s(read_timing);
    Merge(lanes, true, out);
  }
  SortLogSince(out, log_from);

  // --- settle, then read everything back -------------------------------------
  const int64_t settle0 = NowNs();
  RETURN_NOT_OK(Quiesce(engine));
  std::fprintf(stderr, "%s: settle %.3f s rss %.0f files %zu\n", spec.name.c_str(),
               static_cast<double>(NowNs() - settle0) / 1e9, PeakRssMb(), engine->sealed_file_count());
  LogControl(out, trace, kQuiesce);
  out->rss_peak_mb = PeakRssMb();
  uint64_t acked_points = 0;
  for (uint32_t s = 0; s < spec.sensors; ++s) acked_points += acked[s].load();
  out->acked_points = acked_points;
  std::string largest;
  out->disk_bytes_per_pt =
      acked_points == 0 ? 0.0
                        : static_cast<double>(SealedBytes(data_dir, &largest)) /
                              static_cast<double>(acked_points);
  {
    std::vector<uint64_t> counts(spec.sensors);
    for (uint32_t s = 0; s < spec.sensors; ++s) counts[s] = acked[s].load();
    const SettledOracle settled(model, counts);
    std::vector<Lane> lanes;
    for (size_t c = 0; c < 2; ++c) lanes.push_back(MakeLane(false, next_lane++));
    const int64_t v0 = NowNs();
    RunLanes(&lanes, [&](Lane* lane, size_t c) {
      VerifyAll(lane, port, model, settled, names, SensorsOf(spec.sensors, c, 2),
                acked);
    });
    std::fprintf(stderr, "%s: read-back %.3f s\n", spec.name.c_str(),
                 static_cast<double>(NowNs() - v0) / 1e9);
    Merge(lanes, false, out);
  }

  if (trace) {
    BacksortClient client;
    RETURN_NOT_OK(client.Connect("127.0.0.1", port));
    std::vector<double> rtt_us;
    for (int i = 0; i < 2000; ++i) {
      const int64_t t0 = NowNs();
      RETURN_NOT_OK(client.Ping());
      rtt_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    out->ping_rtt_us = Median(rtt_us);
    out->net = server->GetNetMetrics();
    out->engine_final = engine->GetMetricsSnapshot();
    out->flush = engine->GetFlushMetrics();
    if (!largest.empty()) {
      out->largest_file = cfg.dir + "/largest.bstf";
      std::error_code ec;
      fs::copy_file(largest, out->largest_file,
                    fs::copy_options::overwrite_existing, ec);
      if (ec) out->largest_file.clear();
    }
  }
  server->Stop();
  if (monitor != nullptr) out->flush_bytes = monitor->Stop();
  monitor.reset();
  server.reset();
  std::error_code ec;
  fs::remove_all(data_dir, ec);
  return Status::OK();
}

}  // namespace backsort::perf
