#include "layers.h"

#include <algorithm>
#include <filesystem>

#include "common/crc32.h"
#include "core/sorter_registry.h"
#include "encoding/encoding.h"
#include "engine/storage_engine.h"
#include "engine/wal.h"
#include "memtable/memtable.h"
#include "net/protocol.h"
#include "tsfile/tsfile.h"
#include "tvlist/tv_list.h"

namespace backsort::perf {

namespace fs = std::filesystem;

namespace {

constexpr const char* kEngineSpan[kNumRpcOps] = {
    "engine.write_batch", "engine.query", "engine.agg", "engine.latest"};

/// Write requests of the log whose batches the per-batch probes reuse.
constexpr size_t kProbeBatches = 4000;
/// Flush-sized snapshots sorted per sorter.
constexpr size_t kSortMemtables = 4;

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// p50 and TailLatency of `v`, in v's unit / 1e3.
std::pair<double, double> P50Tail(std::vector<double> v) {
  const double tail = TailLatency(v);
  return {Percentile(v, 50) / 1e3, tail / 1e3};
}

/// Replays the traced pass's request log into a fresh in-process engine,
/// one call at a time, each inside an engine.<op> span.
Status ReplayEngine(const PassConfig& cfg, const StreamModel& model,
                    const std::vector<Req>& log, Tracer* tracer) {
  const std::string dir = cfg.dir + "/replay";
  {
    StorageEngine engine(BenchEngineOptions(dir));
    RETURN_NOT_OK(engine.Open());
    std::vector<std::string> names(cfg.spec.sensors);
    for (uint32_t s = 0; s < cfg.spec.sensors; ++s) names[s] = SensorName(s);
    std::vector<TvPairDouble> batch, points;
    TsFileReader::RangeStats stats;
    TvPairDouble latest{};
    // Set-up steps after the last read change no timed call: skip them.
    size_t end = log.size();
    while (end > 0 && log[end - 1].op > kLatest) --end;
    for (size_t i = 0; i < end; ++i) {
      const Req& r = log[i];
      switch (r.op) {
        case kWrite: {
          model.FillBatch(r.sensor, static_cast<uint64_t>(r.a),
                          static_cast<size_t>(r.b), &batch);
          ScopedSpan span(tracer, kEngineSpan[kWrite], 0);
          RETURN_NOT_OK(engine.WriteBatch(names[r.sensor], batch));
          break;
        }
        case kQuery: {
          ScopedSpan span(tracer, kEngineSpan[kQuery], 0);
          RETURN_NOT_OK(engine.Query(names[r.sensor], r.a, r.b, &points));
          break;
        }
        case kAgg: {
          ScopedSpan span(tracer, kEngineSpan[kAgg], 0);
          RETURN_NOT_OK(engine.AggregateFast(names[r.sensor], r.a, r.b, &stats));
          break;
        }
        case kLatest: {
          ScopedSpan span(tracer, kEngineSpan[kLatest], 0);
          const Status st = engine.GetLatest(names[r.sensor], &latest);
          if (!st.ok() && !st.IsNotFound()) return st;
          break;
        }
        case kFlushAll:
          RETURN_NOT_OK(engine.FlushAll());
          break;
        case kCompact:
          RETURN_NOT_OK(engine.Compact());
          break;
        case kQuiesce:
          RETURN_NOT_OK(Quiesce(&engine));
          break;
      }
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  return Status::OK();
}

/// Wire codec, CRC, WAL and memtable on the run's own batches.
Status ProbeBatches(const PassConfig& cfg, const StreamModel& model,
                    const std::vector<Req>& log, Tracer* tracer,
                    MetricTable* out) {
  const std::string wal_path = cfg.dir + "/probe.wal";
  WalWriter wal(wal_path);
  RETURN_NOT_OK(wal.Open());
  const size_t wal_header = wal.bytes();
  auto memtable = std::make_unique<MemTable>();
  std::vector<std::string> names(cfg.spec.sensors);
  for (uint32_t s = 0; s < cfg.spec.sensors; ++s) names[s] = SensorName(s);
  std::vector<TvPairDouble> batch, scratch;
  ByteBuffer payload;
  WriteBatchView view;
  uint64_t points = 0, bytes = 0, memtable_points = 0;
  size_t used = 0;
  for (const Req& r : log) {
    if (r.op != kWrite) continue;
    if (used++ == kProbeBatches) break;
    model.FillBatch(r.sensor, static_cast<uint64_t>(r.a),
                    static_cast<size_t>(r.b), &batch);
    const std::string& name = names[r.sensor];
    payload.Clear();
    {
      ScopedSpan span(tracer, "net.wire_encode", r.sent_ns);
      EncodeWriteBatchRequest(name, batch.data(), batch.size(), &payload);
    }
    {
      ScopedSpan span(tracer, "net.crc", r.sent_ns);
      Crc32(payload.data().data(), payload.size());
    }
    {
      ScopedSpan span(tracer, "net.wire_decode", r.sent_ns);
      RETURN_NOT_OK(DecodeWriteBatchView(payload.data().data(), payload.size(),
                                         &scratch, &view));
    }
    if (view.count != batch.size()) {
      return Status::Corruption("wire probe round trip lost points");
    }
    const SensorSpanDouble group{&name, batch.data(), batch.size()};
    {
      ScopedSpan span(tracer, "wal.append", r.sent_ns);
      RETURN_NOT_OK(wal.AppendBatch(&group, 1));
    }
    if (memtable_points >= BenchEngineOptions("").memtable_flush_threshold) {
      memtable = std::make_unique<MemTable>();  // a flush retires the table
      memtable_points = 0;
    }
    {
      ScopedSpan span(tracer, "memtable.append", r.sent_ns);
      memtable->WriteN(r.sensor, name, batch.data(), batch.size());
    }
    memtable_points += batch.size();
    points += batch.size();
    bytes += payload.size();
  }
  RETURN_NOT_OK(wal.Close());
  const double wal_bytes = static_cast<double>(wal.bytes() - wal_header);
  std::error_code ec;
  fs::remove(wal_path, ec);

  auto self = SelfTimesNs(tracer->spans());
  const double pts = static_cast<double>(points);
  out->Set("net.wire_encode_ns_per_pt", Ratio(Sum(self["net.wire_encode"]), pts), "ns/pt");
  out->Set("net.wire_decode_ns_per_pt", Ratio(Sum(self["net.wire_decode"]), pts), "ns/pt");
  out->Set("net.crc_ns_per_byte", Ratio(Sum(self["net.crc"]), static_cast<double>(bytes)), "ns/byte");
  out->Set("wal.append_ns_per_pt", Ratio(Sum(self["wal.append"]), pts), "ns/pt");
  out->Set("wal.bytes_per_pt", Ratio(wal_bytes, pts), "B/pt");
  out->Set("memtable.append_ns_per_pt", Ratio(Sum(self["memtable.append"]), pts), "ns/pt");
  return Status::OK();
}

/// Sort, encode and decode on flush-sized arrival-order snapshots: each
/// of kSortMemtables memtables of `memtable_flush_threshold` points holds
/// the next threshold / sensors arrivals of every sensor.
Status ProbeFlushPath(const PassConfig& cfg, const StreamModel& model,
                      Tracer* tracer, MetricTable* out) {
  const size_t per_sensor =
      BenchEngineOptions("").memtable_flush_threshold / cfg.spec.sensors;
  const size_t page = BenchEngineOptions("").points_per_page;
  uint64_t overlap = 0, points = 0, merges = 0, skipped = 0, blocks = 0, snapshots = 0;
  uint64_t time_bytes = 0, value_bytes = 0;
  std::vector<TvPairDouble> arrivals;
  for (size_t m = 0; m < kSortMemtables; ++m) {
    for (uint32_t s = 0; s < cfg.spec.sensors; ++s) {
      model.FillBatch(s, m * per_sensor, per_sensor, &arrivals);
      DoubleTVList source;
      source.AppendN(arrivals.data(), arrivals.size());
      struct Variant { SorterId id; const char* span; };
      for (const Variant& v : {Variant{SorterId::kTim, "sort.tim"},
                               Variant{SorterId::kQuick, "sort.quick"},
                               Variant{SorterId::kBackward, "sort.backward"}}) {
        DoubleTVList list = source.Clone();
        TVListSortable<double> seq(list);
        BackwardSortStats stats;
        {
          ScopedSpan span(tracer, v.span, s);
          SortWith(v.id, seq, BackwardSortOptions{}, &stats);
        }
        if (v.id != SorterId::kBackward) continue;
        blocks += stats.chosen_block_size;
        ++snapshots;
        overlap += stats.total_overlap;
        merges += stats.merges_performed;
        skipped += stats.merges_skipped;
        std::vector<Timestamp> ts(list.size());
        std::vector<double> values(list.size());
        for (size_t i = 0; i < list.size(); ++i) {
          ts[i] = list.TimeAt(i);
          values[i] = list.ValueAt(i);
        }
        TsFileWriter::EncodedChunk chunk;
        {
          ScopedSpan span(tracer, "tsfile.encode", s);
          RETURN_NOT_OK(TsFileWriter::EncodeChunkF64(
              SensorName(s), ts, values, Encoding::kTs2Diff, Encoding::kGorilla,
              page, &chunk));
        }
        for (size_t lo = 0; lo < ts.size(); lo += page) {
          const size_t hi = std::min(ts.size(), lo + page);
          const std::vector<int64_t> pts(ts.begin() + lo, ts.begin() + hi);
          const std::vector<double> pvs(values.begin() + lo, values.begin() + hi);
          ByteBuffer tbuf, vbuf;
          EncodeTs2DiffI64(pts, &tbuf);
          EncodeGorillaF64(pvs, &vbuf);
          time_bytes += tbuf.size();
          value_bytes += vbuf.size();
          std::vector<int64_t> dts;
          std::vector<double> dvs;
          ScopedSpan span(tracer, "encoding.decode", s);
          ByteReader tr(tbuf.data());
          ByteReader vr(vbuf.data());
          RETURN_NOT_OK(DecodeTs2DiffI64(&tr, pts.size(), &dts));
          RETURN_NOT_OK(DecodeGorillaF64(&vr, pvs.size(), &dvs));
        }
        points += list.size();
      }
    }
  }
  auto self = SelfTimesNs(tracer->spans());
  const double pts = static_cast<double>(points);
  out->Set("sort.backward_ns_per_pt", Ratio(Sum(self["sort.backward"]), pts), "ns/pt");
  out->Set("sort.tim_ns_per_pt", Ratio(Sum(self["sort.tim"]), pts), "ns/pt");
  out->Set("sort.quick_ns_per_pt", Ratio(Sum(self["sort.quick"]), pts), "ns/pt");
  out->Set("sort.backward_block_len",
           Ratio(static_cast<double>(blocks), static_cast<double>(snapshots)), "points");
  out->Set("sort.backward_overlap_per_pt",
           Ratio(static_cast<double>(overlap), pts), "points/pt");
  out->Set("sort.backward_merges_skipped_ratio",
           Ratio(static_cast<double>(skipped), static_cast<double>(skipped + merges)),
           "ratio");
  out->Set("tsfile.encode_ns_per_pt", Ratio(Sum(self["tsfile.encode"]), pts), "ns/pt");
  out->Set("encoding.time_bytes_per_pt", Ratio(static_cast<double>(time_bytes), pts), "B/pt");
  out->Set("encoding.value_bytes_per_pt", Ratio(static_cast<double>(value_bytes), pts), "B/pt");
  out->Set("encoding.decode_ns_per_pt", Ratio(Sum(self["encoding.decode"]), pts), "ns/pt");
  return Status::OK();
}

/// Range reads and footer reads on the largest sealed file of the pass.
Status ProbeSealedFile(const PassConfig& cfg, const std::string& path,
                       Tracer* tracer, MetricTable* out) {
  static constexpr const char* kNames[] = {"tsfile.read_range_us.0.1pct",
                                           "tsfile.read_range_us.1pct",
                                           "tsfile.read_range_us.10pct"};
  static constexpr const char* kSpans[] = {"tsfile.read_range.0.1pct",
                                           "tsfile.read_range.1pct",
                                           "tsfile.read_range.10pct"};
  static constexpr double kWidths[] = {0.001, 0.01, 0.1};
  if (path.empty()) return Status::NotFound("no sealed file to probe");
  TsFileReader reader(path);
  RETURN_NOT_OK(reader.Open());
  const std::vector<std::string> sensors = reader.Sensors();
  if (sensors.empty()) return Status::NotFound("sealed file has no sensor");
  std::vector<Timestamp> ts;
  std::vector<double> values;
  RETURN_NOT_OK(reader.ReadChunkF64(sensors.front(), &ts, &values));
  if (ts.empty()) return Status::NotFound("sealed chunk is empty");
  const Timestamp t0 = ts.front(), span = ts.back() - ts.front() + 1;
  Rng rng(cfg.seed + 17);
  for (size_t w = 0; w < 3; ++w) {
    const Timestamp width =
        std::max<Timestamp>(1, static_cast<Timestamp>(static_cast<double>(span) * kWidths[w]));
    for (int i = 0; i < 50; ++i) {
      const Timestamp lo =
          t0 + static_cast<Timestamp>(rng.NextBelow(static_cast<uint64_t>(span - width) + 1));
      ScopedSpan s(tracer, kSpans[w], static_cast<uint64_t>(i));
      RETURN_NOT_OK(reader.QueryRangeF64(sensors.front(), lo, lo + width - 1, &ts, &values));
    }
  }
  for (int i = 0; i < 50; ++i) {
    FooterMap footer;
    ScopedSpan s(tracer, "tsfile.footer_read", static_cast<uint64_t>(i));
    RETURN_NOT_OK(ReadTsFileFooter(path, &footer));
  }
  auto self = SelfTimesNs(tracer->spans());
  for (size_t w = 0; w < 3; ++w) out->Set(kNames[w], Median(self[kSpans[w]]) / 1e3, "us");
  out->Set("tsfile.footer_read_us", Median(self["tsfile.footer_read"]) / 1e3, "us");
  return Status::OK();
}

/// Primary end-to-end figure of a pass, for trace.overhead_share: time
/// per unit of work, so larger is slower on every workload.
double CostPerUnit(const std::string& workload, const PassResult& r) {
  if (workload == "ingest") return Ratio(1.0, r.ingest_pts_per_s);
  if (workload == "read") return Ratio(1.0, r.read_ops_per_s);
  std::vector<double> w = r.latency_ms[kWrite];
  return Median(w);
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"net.wire_encode_ns_per_pt", "ns/pt"},
        {"net.wire_decode_ns_per_pt", "ns/pt"},
        {"net.crc_ns_per_byte", "ns/byte"},
        {"net.wakeups_per_req", "count"},
        {"net.writev_frames_mean", "frames"},
        {"net.read_pauses", "count"},
        {"net.ping_rtt_us", "us"},
        {"net.overload_rejections", "count"},
        {"engine.files_opened_per_query", "files"},
        {"engine.files_pruned_per_query", "files"},
        {"engine.agg_fast_path_ratio", "ratio"},
        {"engine.agg_stats_hit_ratio", "ratio"},
        {"engine.sealed_files_final", "files"},
        {"wal.append_ns_per_pt", "ns/pt"},
        {"wal.bytes_per_pt", "B/pt"},
        {"memtable.append_ns_per_pt", "ns/pt"},
        {"sort.backward_ns_per_pt", "ns/pt"},
        {"sort.backward_block_len", "points"},
        {"sort.backward_overlap_per_pt", "points/pt"},
        {"sort.backward_merges_skipped_ratio", "ratio"},
        {"sort.tim_ns_per_pt", "ns/pt"},
        {"sort.quick_ns_per_pt", "ns/pt"},
        {"flush.count", "count"},
        {"flush.mean_ms", "ms"},
        {"flush.sort_share", "ratio"},
        {"tsfile.encode_ns_per_pt", "ns/pt"},
        {"encoding.time_bytes_per_pt", "B/pt"},
        {"encoding.value_bytes_per_pt", "B/pt"},
        {"encoding.decode_ns_per_pt", "ns/pt"},
        {"tsfile.read_range_us.0.1pct", "us"},
        {"tsfile.read_range_us.1pct", "us"},
        {"tsfile.read_range_us.10pct", "us"},
        {"tsfile.footer_read_us", "us"},
        {"cache.hit_ratio", "ratio"},
        {"cache.evictions_per_req", "count"},
        {"cache.footer_misses_per_req", "count"},
        {"cache.resident_mb", "MiB"},
        {"compaction.jobs", "count"},
        {"compaction.input_files", "count"},
        {"compaction.write_amp", "ratio"},
        {"loadgen.late_p99_ms", "ms"},
        {"trace.overhead_share", "ratio"},
    };
    for (size_t op = 0; op < kNumRpcOps; ++op) {
      const std::string name = OpName(static_cast<Op>(op));
      const std::string engine = op == kWrite ? "write_batch" : name;
      v.push_back({"net.rpc_overhead_us." + name, "us"});
      v.push_back({"engine." + engine + "_us.p50", "us"});
      v.push_back({"engine." + engine + "_us.p99", "us"});
      v.push_back({name + ".unattributed_share", "ratio"});
    }
    return v;
  }();
  return kNames;
}

Status MeasureLayers(const PassConfig& cfg, const StreamModel& model,
                     const PassResult& traced, const PassResult& untraced,
                     Tracer* tracer, MetricTable* out) {
  RETURN_NOT_OK(ReplayEngine(cfg, model, traced.log, tracer));
  RETURN_NOT_OK(ProbeBatches(cfg, model, traced.log, tracer, out));
  RETURN_NOT_OK(ProbeFlushPath(cfg, model, tracer, out));
  RETURN_NOT_OK(ProbeSealedFile(cfg, traced.largest_file, tracer, out));

  // net: server counters of the traced pass.
  const NetMetricsSnapshot& net = traced.net;
  uint64_t requests = 0;
  for (uint64_t n : net.requests_total) requests += n;
  out->Set("net.wakeups_per_req",
           Ratio(static_cast<double>(net.event_loop_wakeups), static_cast<double>(requests)),
           "count");
  out->Set("net.writev_frames_mean", net.writev_frames.Mean(), "frames");
  out->Set("net.read_pauses", static_cast<double>(net.read_pauses), "count");
  out->Set("net.ping_rtt_us", traced.ping_rtt_us, "us");
  out->Set("net.overload_rejections", static_cast<double>(net.overload_rejections), "count");

  // engine: replay spans against the loopback latencies of the same calls.
  auto self = SelfTimesNs(tracer->spans());
  const double wire_ns_per_pt = out->Get("net.wire_encode_ns_per_pt") +
                                out->Get("net.wire_decode_ns_per_pt");
  for (size_t op = 0; op < kNumRpcOps; ++op) {
    const std::string name = OpName(static_cast<Op>(op));
    const std::string engine = op == kWrite ? "write_batch" : name;
    const auto [p50_us, tail_us] = P50Tail(self[kEngineSpan[op]]);
    out->Set("engine." + engine + "_us.p50", p50_us, "us");
    out->Set("engine." + engine + "_us.p99", tail_us, "us");
    std::vector<double> e2e = traced.latency_ms[op];
    const double e2e_us = Median(e2e) * 1e3;
    out->Set("net.rpc_overhead_us." + name, e2e_us - p50_us, "us");
    double layers_us = traced.ping_rtt_us + p50_us;
    if (op == kWrite) {
      const double payload = static_cast<double>(kBatchPoints * sizeof(TvPairDouble));
      layers_us += (wire_ns_per_pt * kBatchPoints +
                    out->Get("net.crc_ns_per_byte") * payload) / 1e3;
    }
    out->Set(name + ".unattributed_share", Ratio(e2e_us - layers_us, e2e_us), "ratio");
  }

  const ReadWindow& w = traced.read_window;
  const auto delta = [&](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double queries = delta(w.after.queries, w.before.queries);
  out->Set("engine.files_opened_per_query",
           Ratio(delta(w.after.query_files_opened, w.before.query_files_opened), queries),
           "files");
  out->Set("engine.files_pruned_per_query",
           Ratio(delta(w.after.query_files_pruned, w.before.query_files_pruned), queries),
           "files");
  out->Set("engine.agg_fast_path_ratio",
           Ratio(static_cast<double>(w.agg_fast_path), static_cast<double>(w.agg_answers)),
           "ratio");
  const double stat_hits = delta(w.after.agg_stats_hits, w.before.agg_stats_hits);
  const double stat_misses = delta(w.after.agg_stats_misses, w.before.agg_stats_misses);
  out->Set("engine.agg_stats_hit_ratio", Ratio(stat_hits, stat_hits + stat_misses), "ratio");
  out->Set("engine.sealed_files_final",
           static_cast<double>(traced.engine_final.sealed_files), "files");

  const double hits = delta(w.after.cache.hits, w.before.cache.hits);
  const double misses = delta(w.after.cache.misses, w.before.cache.misses);
  const double reqs = static_cast<double>(w.requests);
  out->Set("cache.hit_ratio", Ratio(hits, hits + misses), "ratio");
  out->Set("cache.evictions_per_req",
           Ratio(delta(w.after.cache.evictions, w.before.cache.evictions), reqs), "count");
  out->Set("cache.footer_misses_per_req",
           Ratio(delta(w.after.cache.footer_misses, w.before.cache.footer_misses), reqs),
           "count");
  out->Set("cache.resident_mb", static_cast<double>(w.after.cache.bytes) / (1 << 20), "MiB");

  const FlushMetrics& flush = traced.flush;
  const double flush_total = flush.flush_ms.mean() * static_cast<double>(flush.flush_ms.count());
  const double sort_total = flush.sort_ms.mean() * static_cast<double>(flush.sort_ms.count());
  out->Set("flush.count", static_cast<double>(flush.flush_ms.count()), "count");
  out->Set("flush.mean_ms", flush.flush_ms.mean(), "ms");
  out->Set("flush.sort_share", Ratio(sort_total, flush_total), "ratio");

  const EngineMetricsSnapshot& fin = traced.engine_final;
  out->Set("compaction.jobs", static_cast<double>(fin.compaction_jobs), "count");
  out->Set("compaction.input_files", static_cast<double>(fin.compaction_input_files), "count");
  out->Set("compaction.write_amp",
           Ratio(static_cast<double>(traced.flush_bytes + fin.compaction_output_bytes),
                 static_cast<double>(traced.acked_points * sizeof(TvPairDouble))),
           "ratio");

  std::vector<double> late = traced.late_ms;
  out->Set("loadgen.late_p99_ms", Percentile(late, TailPercentileFor(late.size())), "ms");
  out->Set("trace.overhead_share",
           Ratio(CostPerUnit(cfg.spec.name, traced), CostPerUnit(cfg.spec.name, untraced)) - 1.0,
           "ratio");
  return Status::OK();
}

}  // namespace backsort::perf
