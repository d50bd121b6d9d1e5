#ifndef BACKSORT_BENCH_SYSTEM_BENCH_H_
#define BACKSORT_BENCH_SYSTEM_BENCH_H_

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "benchkit/workload.h"
#include "common/metrics_registry.h"
#include "engine/storage_engine.h"

namespace backsort::bench {

/// One panel of the system figures: a named delay distribution driven
/// through the write/query mix at every write percentage, once per sorter.
struct SystemPanel {
  std::string name;
  std::unique_ptr<DelayDistribution> delay;
};

/// Writes a bench process's accumulated metrics registry next to its
/// printed results: `<BACKSORT_METRICS_DIR or .>/<bench>.metrics.prom`, in
/// Prometheus text format, so every bench run leaves a machine-readable
/// percentile record alongside the human-readable tables.
inline void WriteBenchMetrics(const MetricsRegistry& metrics,
                              const std::string& bench_name) {
  const std::string path =
      EnvStr("BACKSORT_METRICS_DIR", ".") + "/" + bench_name + ".metrics.prom";
  if (Status st = metrics.WriteFile(path); !st.ok()) {
    std::fprintf(stderr, "metrics write failed: %s\n", st.ToString().c_str());
    return;
  }
  std::printf("\nmetrics: wrote %s\n", path.c_str());
}

/// Emits one `<prefix><stage>_p50_ms` / `_p99_ms` / `_count` field triple
/// per stage of a stage set into the current JSON object — the
/// machine-readable form of the stage table `bstool ingest` prints.
template <template <class> class Set>
void JsonStagePercentiles(JsonWriter& json,
                          const Set<HistogramSnapshot>& stages,
                          const std::string& prefix = "") {
  Set<HistogramSnapshot>::ForEachStage([&](const char* stage, auto get) {
    const HistogramSnapshot& hist = get(stages);
    const std::string name = prefix + stage;
    json.Field(name + "_p50_ms", hist.Percentile(50) / 1e6);
    json.Field(name + "_p99_ms", hist.Percentile(99) / 1e6);
    json.Field(name + "_count", static_cast<size_t>(hist.count));
  });
}

/// Runs the paper's system experiment family over the given panels and
/// prints, per panel, the query-throughput (Figs. 13-15), flush-time
/// (Figs. 16-18) and total-test-latency (Figs. 19-21) tables.
///
/// The write percentages match the paper: 25%, 50%, 75%, 90%, 95%, 99% for
/// the query-dependent metrics, plus 100% for flush/latency (at 100% there
/// are no queries, hence no throughput row).
///
/// When `metrics` is non-null, every engine run's final snapshot is
/// exported into it under {panel, write_pct, sorter} labels (see
/// WriteBenchMetrics). When `json` is non-null, one
/// `"<panel>|<write_pct>|<sorter>"` object per run is appended with the
/// run's throughputs and per-stage percentiles (see WriteBenchJson).
inline void RunSystemFamily(const std::string& figure_ids,
                            std::vector<SystemPanel> panels,
                            MetricsRegistry* metrics = nullptr,
                            JsonWriter* json = nullptr) {
  // Scaled-down defaults (paper: 10M points, 100k memtable). The ratios
  // between sorters — the figure shapes — survive the scaling; export
  // BACKSORT_SYSTEM_POINTS / BACKSORT_FLUSH_THRESHOLD to raise the scale.
  const size_t points = EnvSize("BACKSORT_SYSTEM_POINTS", 100'000);
  const size_t flush_threshold =
      EnvSize("BACKSORT_FLUSH_THRESHOLD", std::max<size_t>(points / 5, 5'000));
  const std::vector<double> write_pcts = {0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0};

  std::vector<std::string> cols;
  for (SorterId s : PaperSorters()) cols.push_back(SorterName(s));

  const std::filesystem::path base =
      std::filesystem::temp_directory_path() /
      ("backsort_bench_" + std::to_string(::getpid()));

  for (const SystemPanel& panel : panels) {
    // results[metric][write_pct][sorter]
    std::vector<std::vector<double>> throughput, flush_ms, latency;
    for (double pct : write_pcts) {
      std::vector<double> t_row, f_row, l_row;
      for (SorterId sorter : PaperSorters()) {
        EngineOptions opt;
        opt.data_dir =
            (base / (panel.name + "_" + std::to_string(int(pct * 100)) + "_" +
                     SorterName(sorter)))
                .string();
        opt.sorter = sorter;
        opt.memtable_flush_threshold = flush_threshold;
        StorageEngine engine(opt);
        Status st = engine.Open();
        if (!st.ok()) {
          std::fprintf(stderr, "engine open failed: %s\n",
                       st.ToString().c_str());
          return;
        }
        WorkloadConfig config;
        config.total_points = points;
        config.write_percentage = pct;
        config.query_window = std::max<Timestamp>(
            static_cast<Timestamp>(flush_threshold / 2), 1000);
        // Multi-client mode (BACKSORT_CLIENT_THREADS=N): N clients over N
        // sensors; pairs with BACKSORT_SHARDS to exercise the sharded
        // engine at paper-figure scale.
        config.client_threads = EnvSize("BACKSORT_CLIENT_THREADS", 1);
        config.sensor_count = std::max<size_t>(config.client_threads, 1);
        WorkloadResult result;
        WorkloadRunner runner(&engine, config);
        st = runner.Run(*panel.delay, &result);
        if (!st.ok()) {
          std::fprintf(stderr, "workload failed: %s\n", st.ToString().c_str());
          return;
        }
        t_row.push_back(result.query_throughput / 1e6);  // 1e6 points/s
        f_row.push_back(result.avg_flush_ms);
        l_row.push_back(result.total_latency_sec);
        if (metrics != nullptr || json != nullptr) {
          const EngineMetricsSnapshot snap = engine.GetMetricsSnapshot();
          char pct_label[16];
          std::snprintf(pct_label, sizeof(pct_label), "%g", pct);
          if (metrics != nullptr) {
            ExportEngineMetrics(snap,
                                {{"panel", panel.name},
                                 {"write_pct", pct_label},
                                 {"sorter", SorterName(sorter)}},
                                /*include_traces=*/false, metrics);
          }
          if (json != nullptr) {
            json->BeginObject(panel.name + "|" + pct_label + "|" +
                              SorterName(sorter));
            json->Field("panel", panel.name);
            json->Field("write_pct", pct);
            json->Field("sorter", SorterName(sorter));
            json->Field("points", points);
            json->Field("flush_threshold", flush_threshold);
            json->Field("client_threads", config.client_threads);
            json->Field("write_throughput_pps", result.write_throughput);
            json->Field("query_throughput_pps", result.query_throughput);
            json->Field("avg_flush_ms", result.avg_flush_ms);
            json->Field("total_latency_sec", result.total_latency_sec);
            JsonStagePercentiles(*json, snap.stages);
            json->EndObject();
          }
        }
      }
      throughput.push_back(std::move(t_row));
      flush_ms.push_back(std::move(f_row));
      latency.push_back(std::move(l_row));
    }

    PrintTitle("Figures " + figure_ids + " / " + panel.name +
               ": query throughput (1e6 points/s)");
    PrintHeader("write pct", cols);
    for (size_t i = 0; i < write_pcts.size(); ++i) {
      if (write_pcts[i] >= 1.0) continue;  // no queries at 100% writes
      PrintRow(std::to_string(write_pcts[i]), throughput[i]);
    }

    PrintTitle("Figures " + figure_ids + " / " + panel.name +
               ": avg flush time (ms)");
    PrintHeader("write pct", cols);
    for (size_t i = 0; i < write_pcts.size(); ++i) {
      PrintRow(std::to_string(write_pcts[i]), flush_ms[i]);
    }

    PrintTitle("Figures " + figure_ids + " / " + panel.name +
               ": total test latency (s)");
    PrintHeader("write pct", cols);
    for (size_t i = 0; i < write_pcts.size(); ++i) {
      PrintRow(std::to_string(write_pcts[i]), latency[i]);
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(base, ec);
}

/// Multi-threaded ingestion scaling across engine shards: the same
/// write-only workload (>=4 client threads over >=4 sensors) driven once
/// against a 1-shard/1-flush-worker engine and once against a
/// 4-shard/2-flush-worker engine, printing aggregate write throughput.
/// With one shard every client serializes on the single engine mutex; with
/// four shards the clients' sensor sets hash onto different shards and
/// ingest in parallel.
/// When `metrics` is non-null, each configuration's final snapshot is
/// exported under {panel, config} labels; when `json` is non-null each
/// configuration appends a `"shard_scaling|..."` object.
inline void RunShardScaling(const std::string& panel_name,
                            const DelayDistribution& delay,
                            MetricsRegistry* metrics = nullptr,
                            JsonWriter* json = nullptr) {
  const size_t points = EnvSize("BACKSORT_SYSTEM_POINTS", 100'000) * 8;
  const size_t flush_threshold =
      EnvSize("BACKSORT_FLUSH_THRESHOLD", std::max<size_t>(points / 20, 5'000));
  const size_t clients =
      std::max<size_t>(EnvSize("BACKSORT_CLIENT_THREADS", 4), 4);

  struct ShardSetup {
    std::string label;
    size_t shards;
    size_t flush_workers;
  };
  const std::vector<ShardSetup> setups = {
      {"1 shard / 1 flush worker", 1, 1},
      {"4 shards / 2 flush workers", 4, 2},
  };

  const std::filesystem::path base =
      std::filesystem::temp_directory_path() /
      ("backsort_shard_scaling_" + std::to_string(::getpid()));

  PrintTitle("Shard scaling / " + panel_name + ": aggregate write throughput (" +
             std::to_string(clients) + " client threads, 1e6 points/s)");
  // The spread between rows tracks available parallelism: on one core the
  // sharded engine wins only by shedding lock contention; with >=4 cores
  // the shards ingest genuinely in parallel.
  std::printf("(hardware concurrency: %u)\n",
              std::thread::hardware_concurrency());
  PrintHeader("configuration", {"ingest", "latency_s", "flushes"});
  for (const ShardSetup& setup : setups) {
    EngineOptions opt;
    opt.data_dir = (base / ("s" + std::to_string(setup.shards))).string();
    // The engine splits the threshold across shards; scaling it by the
    // shard count holds the per-shard seal size (and hence file count and
    // flush granularity) constant across rows, so the comparison isolates
    // write-path parallelism instead of per-file overhead.
    opt.memtable_flush_threshold = flush_threshold * setup.shards;
    // Explicit values: the comparison must pin 1 vs 4 shards even when
    // BACKSORT_SHARDS is exported for the rest of the suite.
    opt.shard_count = setup.shards;
    opt.flush_workers = setup.flush_workers;
    StorageEngine engine(opt);
    Status st = engine.Open();
    if (!st.ok()) {
      std::fprintf(stderr, "engine open failed: %s\n", st.ToString().c_str());
      return;
    }
    WorkloadConfig config;
    config.total_points = points;
    config.write_percentage = 1.0;  // pure ingestion
    // Several sensors per client so the hash spreads them across all
    // shards; with exactly one sensor per client the modulo assignment is
    // lumpy and some shards sit idle.
    config.sensor_count = clients * 4;
    config.client_threads = clients;
    WorkloadResult result;
    WorkloadRunner runner(&engine, config);
    st = runner.Run(delay, &result);
    if (!st.ok()) {
      std::fprintf(stderr, "workload failed: %s\n", st.ToString().c_str());
      return;
    }
    PrintRow(setup.label,
             {result.write_throughput / 1e6, result.total_latency_sec,
              static_cast<double>(result.flush_count)});
    if (metrics != nullptr || json != nullptr) {
      const EngineMetricsSnapshot snap = engine.GetMetricsSnapshot();
      if (metrics != nullptr) {
        ExportEngineMetrics(snap,
                            {{"panel", panel_name}, {"config", setup.label}},
                            /*include_traces=*/false, metrics);
      }
      if (json != nullptr) {
        json->BeginObject("shard_scaling|" + panel_name + "|" + setup.label);
        json->Field("panel", panel_name);
        json->Field("config", setup.label);
        json->Field("points", points);
        json->Field("client_threads", clients);
        json->Field("write_throughput_pps", result.write_throughput);
        json->Field("total_latency_sec", result.total_latency_sec);
        json->Field("flushes", static_cast<size_t>(result.flush_count));
        JsonStagePercentiles(*json, snap.stages);
        json->EndObject();
      }
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(base, ec);
}

/// Mixed read/write benchmark for the lock-free read path: an engine is
/// preloaded with sealed files, then writer threads stream fresh points
/// while reader threads repeat fixed-range queries. Run once with the
/// chunk cache at its default capacity and once with it disabled, so the
/// printed table shows what the cache buys:
///
///   configuration | write throughput | query p50/p99 (ms) | cache hit rate
///
/// Repeating the same ranges makes the cached run converge to memory-speed
/// reads; the uncached run re-opens and re-decodes its files every time.
/// When `metrics` is non-null each configuration's final snapshot (query
/// stage histograms, cache counters) is exported under {panel, config};
/// when `json` is non-null each configuration appends a `"query_mix|..."`
/// object with throughput, query p50/p99 and per-stage percentiles.
inline void RunQueryMix(const std::string& panel_name,
                        const DelayDistribution& delay,
                        MetricsRegistry* metrics = nullptr,
                        JsonWriter* json = nullptr) {
  const size_t preload = EnvSize("BACKSORT_SYSTEM_POINTS", 100'000);
  const size_t stream = std::max<size_t>(preload / 2, 10'000);
  const size_t flush_threshold =
      EnvSize("BACKSORT_FLUSH_THRESHOLD", std::max<size_t>(preload / 10, 5'000));
  const size_t readers = std::max<size_t>(EnvSize("BACKSORT_QUERY_THREADS", 2), 1);
  const size_t sensor_count = 4;
  const Timestamp window = static_cast<Timestamp>(
      std::max<size_t>(flush_threshold / 2, 1'000));

  // File pruning is always on; the label keeps its name because
  // tools/ci.sh step 4 greps the exported metrics for it.
  struct CacheSetup {
    std::string label;
    size_t cache_bytes;
  };
  const std::vector<CacheSetup> setups = {
      {"cache+pruning", EngineOptions::kDefaultChunkCacheBytes},
      {"no cache", 0},
  };

  const std::filesystem::path base =
      std::filesystem::temp_directory_path() /
      ("backsort_query_mix_" + std::to_string(::getpid()));

  PrintTitle("Query mix / " + panel_name + ": " + std::to_string(readers) +
             " readers vs 1 writer (preload " + std::to_string(preload) +
             ", stream " + std::to_string(stream) + ")");
  PrintHeader("configuration",
              {"write_mps", "q_p50_ms", "q_p99_ms", "hit_rate"});
  // Sensor names built once, not per point: the writer loop below issues
  // millions of Writes and a heap-allocating to_string per point would
  // bench the name formatting, not the engine.
  std::vector<std::string> sensor_names;
  sensor_names.reserve(sensor_count);
  for (size_t i = 0; i < sensor_count; ++i) {
    sensor_names.push_back("qm" + std::to_string(i));
  }
  for (const CacheSetup& setup : setups) {
    EngineOptions opt;
    opt.data_dir =
        (base / (setup.cache_bytes > 0 ? "cache" : "nocache")).string();
    opt.memtable_flush_threshold = flush_threshold;
    opt.shard_count = 2;
    opt.flush_workers = 2;
    opt.chunk_cache_bytes = setup.cache_bytes;
    StorageEngine engine(opt);
    if (Status st = engine.Open(); !st.ok()) {
      std::fprintf(stderr, "engine open failed: %s\n", st.ToString().c_str());
      return;
    }

    // Preload: a disordered stream per sensor, sealed to files.
    auto sensor_of = [&sensor_names](size_t i) -> const std::string& {
      return sensor_names[i];
    };
    {
      Rng rng(42);
      for (size_t s = 0; s < sensor_count; ++s) {
        const auto ts = GenerateArrivalOrderedTimestamps(
            preload / sensor_count, delay, rng);
        for (const Timestamp t : ts) {
          if (Status st = engine.Write(sensor_of(s), t, double(t)); !st.ok()) {
            std::fprintf(stderr, "preload failed: %s\n", st.ToString().c_str());
            return;
          }
        }
      }
      if (Status st = engine.FlushAll(); !st.ok()) {
        std::fprintf(stderr, "flush failed: %s\n", st.ToString().c_str());
        return;
      }
    }

    // Mixed phase: one writer streams on, readers hammer fixed ranges.
    std::atomic<bool> writer_done{false};
    double write_seconds = 0;
    std::thread writer([&] {
      Rng rng(43);
      const auto ts = GenerateArrivalOrderedTimestamps(stream, delay, rng);
      WallTimer timer;
      for (size_t i = 0; i < ts.size(); ++i) {
        const Timestamp t =
            ts[i] + static_cast<Timestamp>(preload / sensor_count);
        (void)engine.Write(sensor_of(i % sensor_count), t, double(t));
      }
      write_seconds = timer.ElapsedMillis() / 1e3;
      writer_done.store(true);
    });
    std::vector<std::vector<double>> latencies(readers);
    std::vector<std::thread> reader_threads;
    for (size_t r = 0; r < readers; ++r) {
      reader_threads.emplace_back([&, r] {
        std::vector<TvPairDouble> out;
        size_t round = 0;
        while (!writer_done.load()) {
          // Fixed, recurring ranges: the cacheable access pattern.
          const std::string& sensor = sensor_of(round++ % sensor_count);
          const Timestamp lo = static_cast<Timestamp>(
              (round % 4) * static_cast<size_t>(window) / 2);
          WallTimer timer;
          if (engine.Query(sensor, lo, lo + window, &out).ok()) {
            latencies[r].push_back(timer.ElapsedMillis());
          }
        }
      });
    }
    writer.join();
    for (std::thread& t : reader_threads) t.join();

    std::vector<double> all;
    for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    const double p50 = all.empty() ? 0 : all[all.size() / 2];
    const double p99 = all.empty() ? 0 : all[all.size() * 99 / 100];
    const ChunkCacheStats cache = engine.GetChunkCacheStats();
    const double hit_rate =
        cache.hits + cache.misses == 0
            ? 0.0
            : double(cache.hits) / double(cache.hits + cache.misses);
    const double write_mps =
        write_seconds <= 0 ? 0 : double(stream) / write_seconds / 1e6;
    PrintRow(setup.label, {write_mps, p50, p99, hit_rate});
    std::printf("  (%zu queries, %llu cache hits, %llu misses, %llu pruned)\n",
                all.size(), static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                static_cast<unsigned long long>(
                    engine.GetMetricsSnapshot().query_files_pruned));
    if (metrics != nullptr || json != nullptr) {
      const EngineMetricsSnapshot snap = engine.GetMetricsSnapshot();
      if (metrics != nullptr) {
        ExportEngineMetrics(snap,
                            {{"panel", panel_name}, {"config", setup.label}},
                            /*include_traces=*/false, metrics);
      }
      if (json != nullptr) {
        json->BeginObject("query_mix|" + panel_name + "|" + setup.label);
        json->Field("panel", panel_name);
        json->Field("config", setup.label);
        json->Field("preload_points", preload);
        json->Field("stream_points", stream);
        json->Field("readers", readers);
        json->Field("write_throughput_pps", write_mps * 1e6);
        json->Field("query_p50_ms", p50);
        json->Field("query_p99_ms", p99);
        json->Field("queries", all.size());
        json->Field("cache_hit_rate", hit_rate);
        JsonStagePercentiles(*json, snap.query_stages, "q_");
        json->EndObject();
      }
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(base, ec);
}

}  // namespace backsort::bench

#endif  // BACKSORT_BENCH_SYSTEM_BENCH_H_
