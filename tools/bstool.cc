// bstool — command-line companion for the backsort storage format and
// workload files.
//
//   bstool inspect <file.bstf>
//       List sensors, data types, point counts, chunk byte lengths and time
//       ranges of a TsFile.
//   bstool dump <file.bstf> <sensor> [limit]
//       Print a sensor's points as CSV (up to `limit` rows, default all).
//   bstool gen <out.csv> <points> <dist> [seed]
//       Generate an arrival-ordered workload CSV. <dist> is one of
//       absnormal:MU,SIGMA  lognormal:MU,SIGMA  exponential:LAMBDA
//       uniform:LO,HI  citibike-201808  citibike-201902  samsung-d5
//       samsung-s10
//   bstool sort <in.csv> <out.csv> [algo]
//       Sort a workload CSV by timestamp with the chosen algorithm
//       (default Back; see `bstool algos`).
//   bstool iir <in.csv>
//       Print the interval inversion ratio profile at power-of-two
//       intervals — the Fig. 8a diagnostic for choosing block sizes.
//   bstool ingest <dir> <points> <dist> [--shards=N] [--flush-workers=N]
//                 [--threads=N] [--sensors=N] [--batch=N] [--seed=N]
//                 [--metrics-interval=MS] [--metrics-file=PATH]
//                 [--chunk-cache-bytes=N] [--no-footer-stats]
//       Drive a multi-threaded write-only workload into a (possibly
//       sharded) storage engine under <dir> and print aggregate write
//       throughput, per-shard flush metrics, stage latency percentiles
//       and the aggregate stats-hit rate (chunks answered from footer
//       statistics vs decoded).
//       --chunk-cache-bytes sizes the shared chunk cache (0 disables it;
//       unset = the 64 MiB default).
//       --no-footer-stats writes stat-less BSTF1 footers (the legacy
//       format); aggregates then fall back to page decode.
//       While running (and at exit) the full engine state is exported in
//       Prometheus text format to <dir>/metrics.prom (see docs/METRICS.md).
//   bstool metrics <dir-or-file>
//       One-shot dump of the Prometheus exposition written by `ingest`
//       (<dir>/metrics.prom, or an explicit file path); a chunk-cache
//       hit-rate summary goes to stderr so stdout stays valid exposition.
//   bstool watch <dir-or-file> [--interval=MS] [--count=N]
//       Periodically re-read the metrics file and print a compact one-line
//       summary (queue depths, stage percentiles, cache hit rate) — run it
//       next to `bstool ingest` on the same <dir> to watch the engine live.
//   bstool serve <dir> [--host=A] [--port=N] [--port-file=PATH]
//                [--event-loops=N] [--workers=N] [--max-pipeline-depth=N]
//                [--shards=N] [--flush-workers=N]
//                [--max-inflight-requests=N] [--max-inflight-bytes=N]
//                [--wal-fsync] [--cluster=SPEC] [--node-id=ID]
//       Serve a storage engine under <dir> over the BSN1 wire protocol
//       (docs/WIRE_PROTOCOL.md) until SIGINT/SIGTERM, then shut down
//       gracefully (in-flight requests drain, the engine flushes).
//       --event-loops sizes the epoll readiness threads, --workers the
//       request-execution pool, --max-pipeline-depth the per-connection
//       pipelining cap. --port=0 (default) binds an ephemeral port;
//       --port-file writes the bound port for scripts. A final request
//       summary is printed on exit; live metrics are served by the
//       MetricsSnapshot RPC (`bstool client <addr> metrics`).
//       --cluster names a static node map (a file, or an inline
//       `[id=]host:port,...` list) and --node-id this process's entry;
//       the node then ships its writes to its ring follower
//       (docs/OPERATIONS.md "Running a cluster").
//   bstool client <host:port> ping|write|query|latest|agg|metrics [...]
//   bstool client --servers=<host:port,...> write|query|latest|agg [...]
//       One-shot wire-protocol client for a running `bstool serve`.
//       --servers routes each operation to its sensor's primary by the
//       cluster hash, failing over to the replica when the primary is
//       unreachable. Single-address form:
//         ping                       round-trip latency probe
//         write <sensor> <count> [--t0=N] [--batch=N] [--pipeline=D]
//                                    synthetic ascending-time points;
//                                    --pipeline=D keeps D batches in
//                                    flight on the one connection
//         query <sensor> <t_min> <t_max>     CSV on stdout
//         latest <sensor>                    last point
//         agg <sensor> <t_min> <t_max>       aggregate stats (plus the
//                                    server's cumulative stats-hit rate,
//                                    read back from its metrics)
//         metrics                            server exposition on stdout
//   bstool algos
//       List registered sorting algorithms.
//
// Counts — positional (`<points>`, `[seed]`, `[limit]`, `<count>`) and
// flag values (`--name=N`, `--name=MS`) — take decimal digits only; a
// sign, a typo or an overflowing value exits with status 2 naming the
// argument.

#include <atomic>
#include <csignal>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchkit/csv.h"
#include "benchkit/workload.h"
#include "cluster/cluster_client.h"
#include "cluster/node.h"
#include "common/metrics_registry.h"
#include "common/parse_count.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/sorter_registry.h"
#include "disorder/datasets.h"
#include "disorder/inversion.h"
#include "disorder/series_generator.h"
#include "net/client.h"
#include "net/server.h"
#include "tsfile/tsfile.h"

namespace backsort {
namespace {

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bstool inspect|dump|gen|sort|iir|ingest|compact|"
               "metrics|watch|algos ...\n"
               "  inspect <file.bstf>\n"
               "  dump <file.bstf> <sensor> [limit]\n"
               "  gen <out.csv> <points> <dist> [seed]\n"
               "  sort <in.csv> <out.csv> [algo]\n"
               "  iir <in.csv>\n"
               "  ingest <dir> <points> <dist> [--shards=N]"
               " [--flush-workers=N]\n"
               "         [--threads=N] [--sensors=N] [--batch=N] [--seed=N]\n"
               "         [--metrics-interval=MS] [--metrics-file=PATH]\n"
               "         [--chunk-cache-bytes=N] [--compaction]"
               " [--no-footer-stats]\n"
               "  compact <dir> [--step] [--fanin=N] [--trigger=N]\n"
               "  metrics <dir-or-file>\n"
               "  watch <dir-or-file> [--interval=MS] [--count=N]\n"
               "  serve <dir> [--host=A] [--port=N] [--port-file=PATH]"
               " [--event-loops=N]\n"
               "        [--workers=N] [--max-pipeline-depth=N]"
               " [--shards=N] [--flush-workers=N]\n"
               "        [--max-inflight-requests=N] [--max-inflight-bytes=N]"
               " [--wal-fsync]\n"
               "        [--compaction] [--cluster=SPEC] [--node-id=ID]\n"
               "  client <host:port>"
               " ping|write|query|latest|agg|metrics [...]\n"
               "  client --servers=<host:port,...>"
               " write|query|latest|agg [...]\n"
               "counts (positional and =N, =MS flags) take decimal digits"
               " only\n");
  return 2;
}

/// Parses the count `text`. A value that is not a decimal count (ParseCount)
/// exits with status 2, naming the argument `what`.
size_t CountArg(const char* text, const char* what) {
  size_t value = 0;
  if (!ParseCount(text, &value)) {
    std::fprintf(stderr, "error: %s must be a decimal count, got '%s'\n",
                 what, text);
    std::exit(2);
  }
  return value;
}

/// Parses the timestamp `text`. A value that is not a signed decimal
/// (ParseTimestamp) exits with status 2, naming the argument `what`.
Timestamp TimestampArg(const char* text, const char* what) {
  int64_t value = 0;
  if (!ParseTimestamp(text, &value)) {
    std::fprintf(stderr, "error: %s must be a decimal timestamp, got '%s'\n",
                 what, text);
    std::exit(2);
  }
  return value;
}

std::unique_ptr<DelayDistribution> ParseDistribution(const std::string& spec) {
  for (DatasetId id : RealWorldDatasets()) {
    if (spec == DatasetName(id)) return MakeDatasetDelay(id);
  }
  const size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  double a = 0, b = 0;
  if (colon != std::string::npos) {
    const std::string args = spec.substr(colon + 1);
    const size_t comma = args.find(',');
    a = std::atof(args.c_str());
    if (comma != std::string::npos) b = std::atof(args.c_str() + comma + 1);
  }
  if (kind == "absnormal") return std::make_unique<AbsNormalDelay>(a, b);
  if (kind == "lognormal") return std::make_unique<LogNormalDelay>(a, b);
  if (kind == "exponential") return std::make_unique<ExponentialDelay>(a);
  if (kind == "uniform") {
    return std::make_unique<DiscreteUniformDelay>(static_cast<int64_t>(a),
                                                  static_cast<int64_t>(b));
  }
  return nullptr;
}

int CmdInspect(int argc, char** argv) {
  if (argc < 1) return Usage();
  TsFileReader reader(argv[0]);
  if (Status st = reader.Open(); !st.ok()) return Fail(st);
  std::printf("%-32s %-8s %10s %10s %14s %14s\n", "sensor", "type",
              "points", "bytes", "min time", "max time");
  for (const std::string& sensor : reader.Sensors()) {
    DataType type;
    if (Status st = reader.GetDataType(sensor, &type); !st.ok()) {
      return Fail(st);
    }
    std::vector<Timestamp> ts;
    size_t count = 0;
    Timestamp t_min = 0, t_max = 0;
    if (type == DataType::kDouble) {
      std::vector<double> values;
      if (Status st = reader.ReadChunkF64(sensor, &ts, &values); !st.ok()) {
        return Fail(st);
      }
    } else {
      std::vector<int64_t> values;
      if (Status st = reader.ReadChunkI64(sensor, &ts, &values); !st.ok()) {
        return Fail(st);
      }
    }
    count = ts.size();
    if (count > 0) {
      t_min = ts.front();
      t_max = ts.back();
    }
    // The chunk's length in the file: a streaming writer holds the whole
    // encoded chunk until it ends, so this bounds the writer's memory.
    std::printf("%-32s %-8s %10zu %10llu %14lld %14lld\n", sensor.c_str(),
                type == DataType::kDouble ? "double" : "int64", count,
                static_cast<unsigned long long>(
                    reader.Locators().at(sensor).length),
                static_cast<long long>(t_min), static_cast<long long>(t_max));
  }
  return 0;
}

int CmdDump(int argc, char** argv) {
  if (argc < 2) return Usage();
  const size_t limit =
      argc >= 3 ? CountArg(argv[2], "[limit]") : static_cast<size_t>(-1);
  TsFileReader reader(argv[0]);
  if (Status st = reader.Open(); !st.ok()) return Fail(st);
  std::vector<Timestamp> ts;
  std::vector<double> values;
  if (Status st = reader.ReadChunkF64(argv[1], &ts, &values); !st.ok()) {
    return Fail(st);
  }
  std::printf("timestamp,value\n");
  for (size_t i = 0; i < ts.size() && i < limit; ++i) {
    std::printf("%lld,%.17g\n", static_cast<long long>(ts[i]), values[i]);
  }
  return 0;
}

int CmdGen(int argc, char** argv) {
  if (argc < 3) return Usage();
  const size_t points = CountArg(argv[1], "<points>");
  auto delay = ParseDistribution(argv[2]);
  if (delay == nullptr) {
    std::fprintf(stderr, "unknown distribution: %s\n", argv[2]);
    return 2;
  }
  Rng rng(argc >= 4 ? CountArg(argv[3], "[seed]") : 42);
  const auto series = GenerateArrivalOrderedSeries<double>(points, *delay, rng);
  if (Status st = WriteCsv(argv[0], series); !st.ok()) return Fail(st);
  std::printf("wrote %zu arrival-ordered points (%s) to %s\n", series.size(),
              delay->Name().c_str(), argv[0]);
  return 0;
}

int CmdSort(int argc, char** argv) {
  if (argc < 2) return Usage();
  SorterId sorter = SorterId::kBackward;
  if (argc >= 3 && !SorterFromName(argv[2], &sorter)) {
    std::fprintf(stderr, "unknown algorithm: %s (try `bstool algos`)\n",
                 argv[2]);
    return 2;
  }
  std::vector<TvPairDouble> points;
  if (Status st = ReadCsv(argv[0], &points); !st.ok()) return Fail(st);
  VectorSortable<double> seq(points);
  WallTimer timer;
  SortWith(sorter, seq);
  const double ms = timer.ElapsedMillis();
  if (Status st = WriteCsv(argv[1], points); !st.ok()) return Fail(st);
  std::printf("%s sorted %zu points in %.3f ms (%llu moves, %llu compares)\n",
              SorterName(sorter).c_str(), points.size(), ms,
              static_cast<unsigned long long>(seq.counters().moves),
              static_cast<unsigned long long>(seq.counters().comparisons));
  return 0;
}

int CmdIir(int argc, char** argv) {
  if (argc < 1) return Usage();
  std::vector<TvPairDouble> points;
  if (Status st = ReadCsv(argv[0], &points); !st.ok()) return Fail(st);
  std::vector<Timestamp> ts(points.size());
  for (size_t i = 0; i < points.size(); ++i) ts[i] = points[i].t;
  std::printf("%-12s %14s %14s\n", "interval", "exact IIR", "empirical");
  for (size_t L = 1; L < ts.size(); L *= 2) {
    std::printf("%-12zu %14.6g %14.6g\n", L, IntervalInversionRatio(ts, L),
                EmpiricalIntervalInversionRatio(ts, L));
  }
  return 0;
}

/// Parses `--name=value` into `out`; returns false when `arg` is a
/// different flag. A value that is not a decimal count (ParseCount) exits
/// with status 2 naming the flag: flags are parsed before any engine,
/// server or connection does work, so there is nothing to unwind.
bool FlagValue(const char* arg, const char* name, size_t* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = CountArg(arg + len + 1, name);
  return true;
}

/// String-valued variant of FlagValue.
bool FlagStr(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

/// `bstool metrics`/`watch` accept either the data dir (where `ingest`
/// drops metrics.prom) or an explicit file path.
std::string ResolveMetricsPath(const std::string& arg) {
  std::error_code ec;
  if (std::filesystem::is_directory(arg, ec)) return arg + "/metrics.prom";
  return arg;
}

/// Exports the engine's current snapshot (with flush traces) to `path` in
/// Prometheus text format, atomically (temp file + rename).
Status DumpEngineMetrics(const StorageEngine& engine,
                         const std::string& path) {
  MetricsRegistry registry;
  ExportEngineMetrics(engine.GetMetricsSnapshot(), {}, /*include_traces=*/true,
                      &registry);
  return registry.WriteFile(path);
}

/// Reads a rendered exposition file into sample-name -> value, keyed by the
/// full sample text including labels (comments skipped). Returns false when
/// the file cannot be read.
bool ParseMetricsFile(const std::string& path,
                      std::map<std::string, double>* out) {
  out->clear();
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char line[1024];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (line[0] == '#' || line[0] == '\n') continue;
    char* last_space = std::strrchr(line, ' ');
    if (last_space == nullptr) continue;
    *last_space = '\0';
    (*out)[line] = std::strtod(last_space + 1, nullptr);
  }
  std::fclose(f);
  return true;
}

/// Looks up one sample (0 when missing, e.g. NaN-free default for display).
double Sample(const std::map<std::string, double>& samples,
              const std::string& key) {
  auto it = samples.find(key);
  return it == samples.end() || std::isnan(it->second) ? 0.0 : it->second;
}

int CmdMetrics(int argc, char** argv) {
  if (argc < 1) return Usage();
  const std::string path = ResolveMetricsPath(argv[0]);
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr,
                 "error: cannot read %s\n"
                 "hint: `bstool ingest <dir> ...` writes <dir>/metrics.prom\n",
                 path.c_str());
    return 1;
  }
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    std::fwrite(buf, 1, n, stdout);
  }
  std::fclose(f);
  // Human summary on stderr, so stdout remains a valid exposition.
  std::map<std::string, double> samples;
  if (ParseMetricsFile(path, &samples)) {
    const double hits = Sample(samples, "backsort_chunk_cache_hits_total");
    const double lookups =
        hits + Sample(samples, "backsort_chunk_cache_misses_total");
    std::fprintf(stderr, "chunk cache hit rate: %.1f%% (%.0f/%.0f lookups)\n",
                 lookups == 0 ? 0.0 : 100.0 * hits / lookups, hits, lookups);
  }
  return 0;
}

int CmdWatch(int argc, char** argv) {
  if (argc < 1) return Usage();
  const std::string path = ResolveMetricsPath(argv[0]);
  size_t interval_ms = 1000;
  size_t count = 0;  // 0 = until interrupted
  for (int i = 1; i < argc; ++i) {
    if (FlagValue(argv[i], "--interval", &interval_ms) ||
        FlagValue(argv[i], "--count", &count)) {
      continue;
    }
    std::fprintf(stderr, "unknown option: %s\n", argv[i]);
    return Usage();
  }
  auto stage_p99_ms = [](const std::map<std::string, double>& s,
                         const char* stage) {
    return Sample(s, std::string("backsort_stage_duration_seconds{stage=\"") +
                         stage + "\",quantile=\"0.99\"}") *
           1e3;
  };
  for (size_t tick = 0; count == 0 || tick < count; ++tick) {
    std::map<std::string, double> samples;
    if (!ParseMetricsFile(path, &samples)) {
      std::printf("[watch] waiting for %s ...\n", path.c_str());
    } else {
      const std::time_t now = std::time(nullptr);
      char clock[16];
      std::strftime(clock, sizeof(clock), "%H:%M:%S", std::localtime(&now));
      const double cache_hits =
          Sample(samples, "backsort_chunk_cache_hits_total");
      const double cache_lookups =
          cache_hits + Sample(samples, "backsort_chunk_cache_misses_total");
      std::printf(
          "[%s] flushes=%-6.0f queued=%-4.0f working=%-9.0f files=%-5.0f "
          "cache=%5.1f%% | p99 ms: apply=%.3f qwait=%.1f sort=%.1f "
          "encode=%.1f seal=%.1f flush=%.1f\n",
          clock, Sample(samples, "backsort_flushes_total"),
          Sample(samples, "backsort_queued_flushes"),
          Sample(samples, "backsort_working_points"),
          Sample(samples, "backsort_sealed_files"),
          cache_lookups == 0 ? 0.0 : 100.0 * cache_hits / cache_lookups,
          stage_p99_ms(samples, "batch_apply"),
          stage_p99_ms(samples, "queue_wait"),
          stage_p99_ms(samples, "sort"), stage_p99_ms(samples, "encode"),
          stage_p99_ms(samples, "seal"), stage_p99_ms(samples, "flush"));
    }
    std::fflush(stdout);
    if (count != 0 && tick + 1 >= count) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}

int CmdIngest(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string dir = argv[0];
  const size_t points = CountArg(argv[1], "<points>");
  auto delay = ParseDistribution(argv[2]);
  if (delay == nullptr) {
    std::fprintf(stderr, "unknown distribution: %s\n", argv[2]);
    return 2;
  }
  // 0 = engine auto/env resolution
  size_t shards = 0, flush_workers = 0;
  size_t threads = 4, sensors = 0, batch = 500, seed = 42;
  size_t metrics_interval = 1000;  // ms between exports; 0 = final only
  std::string metrics_file;        // default <dir>/metrics.prom
  size_t chunk_cache_bytes = EngineOptions::kDefaultChunkCacheBytes;
  bool compaction = false;
  bool footer_stats = true;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--compaction") == 0) {
      compaction = true;
      continue;
    }
    if (std::strcmp(argv[i], "--no-footer-stats") == 0) {
      // Escape hatch: write stat-less BSTF1 footers (the pre-statistics
      // format). Aggregates over the files fall back to page decode.
      footer_stats = false;
      continue;
    }
    if (FlagValue(argv[i], "--shards", &shards) ||
        FlagValue(argv[i], "--flush-workers", &flush_workers) ||
        FlagValue(argv[i], "--chunk-cache-bytes", &chunk_cache_bytes) ||
        FlagValue(argv[i], "--threads", &threads) ||
        FlagValue(argv[i], "--sensors", &sensors) ||
        FlagValue(argv[i], "--batch", &batch) ||
        FlagValue(argv[i], "--seed", &seed) ||
        FlagValue(argv[i], "--metrics-interval", &metrics_interval) ||
        FlagStr(argv[i], "--metrics-file", &metrics_file)) {
      continue;
    }
    std::fprintf(stderr, "unknown option: %s\n", argv[i]);
    return Usage();
  }
  if (sensors == 0) sensors = std::max<size_t>(threads, 1);
  if (metrics_file.empty()) metrics_file = dir + "/metrics.prom";

  EngineOptions opt;
  opt.data_dir = dir;
  opt.shard_count = shards;
  opt.flush_workers = flush_workers;
  opt.chunk_cache_bytes = chunk_cache_bytes;
  opt.compaction_enabled = compaction;
  opt.footer_stats = footer_stats;
  StorageEngine engine(opt);
  if (Status st = engine.Open(); !st.ok()) return Fail(st);

  WorkloadConfig config;
  config.total_points = points;
  config.write_percentage = 1.0;
  config.sensor_count = sensors;
  config.client_threads = threads;
  config.batch_size = batch;
  config.seed = seed;
  // Periodic Prometheus export while the workload runs, so a concurrent
  // `bstool watch <dir>` sees live queue depths and percentiles.
  std::atomic<bool> stop_refresher{false};
  std::thread refresher;
  if (metrics_interval > 0) {
    refresher = std::thread([&engine, &metrics_file, &stop_refresher,
                             metrics_interval] {
      while (!stop_refresher.load()) {
        (void)DumpEngineMetrics(engine, metrics_file);
        for (size_t slept = 0;
             slept < metrics_interval && !stop_refresher.load(); slept += 50) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      }
    });
  }

  WorkloadResult result;
  WorkloadRunner runner(&engine, config);
  Status run_status = runner.Run(*delay, &result);
  stop_refresher.store(true);
  if (refresher.joinable()) refresher.join();
  if (!run_status.ok()) return Fail(run_status);

  std::printf("ingested %zu points (%s) with %zu client threads over"
              " %zu sensors\n",
              result.points_written, delay->Name().c_str(), threads, sensors);
  std::printf("engine: %zu shard(s), %zu flush worker(s)\n",
              engine.shard_count(), engine.flush_worker_count());
  std::printf("write throughput: %.0f points/s (%.3f s total)\n",
              result.write_throughput, result.total_latency_sec);
  const EngineMetricsSnapshot snap = engine.GetMetricsSnapshot();
  std::printf("%-8s %12s %12s %12s %12s %14s\n", "shard", "points", "queued",
              "flushes", "files", "avg flush ms");
  for (const ShardMetricsSnapshot& s : snap.shards) {
    std::printf("%-8zu %12zu %12zu %12zu %12zu %14.3f\n", s.shard_id,
                s.working_points, s.queued_flushes, s.completed_flushes,
                s.sealed_files, s.flush.flush_ms.mean());
  }
  std::printf("total: %zu flushes, %zu sealed files\n",
              snap.total_completed_flushes(), snap.sealed_files);
  if (engine.compaction_enabled()) {
    std::printf("compaction: %llu jobs (%llu failed), %llu inputs merged, "
                "%llu output bytes; stable-file bound %zu\n",
                static_cast<unsigned long long>(snap.compaction_jobs),
                static_cast<unsigned long long>(snap.compaction_failures),
                static_cast<unsigned long long>(snap.compaction_input_files),
                static_cast<unsigned long long>(snap.compaction_output_bytes),
                engine.CompactionFileBound());
  }
  const ChunkCacheStats& cache = snap.cache;
  const uint64_t lookups = cache.hits + cache.misses;
  std::printf("chunk cache: %zu bytes capacity, %llu entries (%llu bytes), "
              "hit rate %.1f%% (%llu/%llu lookups)\n",
              engine.chunk_cache_capacity(),
              static_cast<unsigned long long>(cache.entries),
              static_cast<unsigned long long>(cache.bytes),
              lookups == 0 ? 0.0 : 100.0 * double(cache.hits) / double(lookups),
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(lookups));
  // Aggregation plan effectiveness: how many chunks answered from footer
  // statistics alone vs falling to decode (pure-write runs report 0/0).
  const uint64_t agg_chunks = snap.agg_stats_hits + snap.agg_stats_misses;
  std::printf("footer stats: %s; aggregate stats-hit rate %.1f%% "
              "(%llu hits / %llu misses over %llu requests)\n",
              footer_stats ? "on" : "off (--no-footer-stats)",
              agg_chunks == 0
                  ? 0.0
                  : 100.0 * double(snap.agg_stats_hits) / double(agg_chunks),
              static_cast<unsigned long long>(snap.agg_stats_hits),
              static_cast<unsigned long long>(snap.agg_stats_misses),
              static_cast<unsigned long long>(snap.agg_requests));

  // Stage latency percentiles from the engine-wide histograms (ns -> ms).
  std::printf("%-12s %12s %12s %12s %12s %12s\n", "stage (ms)", "p50", "p90",
              "p99", "max", "count");
  WriteStages<HistogramSnapshot>::ForEachStage([&](const char* name,
                                                   auto get) {
    const HistogramSnapshot& hist = get(snap.stages);
    std::printf("%-12s %12.4f %12.4f %12.4f %12.4f %12llu\n", name,
                hist.Percentile(50) / 1e6, hist.Percentile(90) / 1e6,
                hist.Percentile(99) / 1e6, static_cast<double>(hist.max) / 1e6,
                static_cast<unsigned long long>(hist.count));
  });

  if (Status st = DumpEngineMetrics(engine, metrics_file); !st.ok()) {
    return Fail(st);
  }
  std::printf("metrics: wrote %s (try `bstool metrics %s`)\n",
              metrics_file.c_str(), dir.c_str());
  return 0;
}

/// Offline compaction over an existing data directory: opens the engine
/// (recovering sealed files and WAL), then either compacts to a fixpoint
/// (one sequence file) or, with --step, runs tiered steps until the
/// planner finds nothing to merge. --fanin / --trigger override the
/// engine's resolved tuning for this invocation.
int CmdCompact(int argc, char** argv) {
  if (argc < 1) return Usage();
  EngineOptions opt;
  opt.data_dir = argv[0];
  bool step = false;
  size_t fanin = 0, trigger = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--step") == 0) {
      step = true;
      continue;
    }
    if (FlagValue(argv[i], "--fanin", &fanin) ||
        FlagValue(argv[i], "--trigger", &trigger)) {
      continue;
    }
    std::fprintf(stderr, "unknown option: %s\n", argv[i]);
    return Usage();
  }
  opt.compaction_max_fanin = fanin;
  opt.compaction_trigger_files = trigger;
  StorageEngine engine(opt);
  if (Status st = engine.Open(); !st.ok()) return Fail(st);

  const size_t files_before = engine.sealed_file_count();
  WallTimer timer;
  if (step) {
    bool performed = true;
    while (performed) {
      performed = false;
      if (Status st = engine.CompactStep(&performed); !st.ok()) {
        return Fail(st);
      }
    }
  } else {
    if (Status st = engine.Compact(); !st.ok()) return Fail(st);
  }
  const double elapsed_ms = timer.ElapsedMillis();

  const EngineMetricsSnapshot snap = engine.GetMetricsSnapshot();
  std::printf("compacted %s: %zu -> %zu sealed files in %.3f ms\n", argv[0],
              files_before, engine.sealed_file_count(), elapsed_ms);
  std::printf("  %llu merge job(s), %llu input files consumed, "
              "%llu output bytes\n",
              static_cast<unsigned long long>(snap.compaction_jobs),
              static_cast<unsigned long long>(snap.compaction_input_files),
              static_cast<unsigned long long>(snap.compaction_output_bytes));
  std::printf("  input pages: %llu copied, %llu merged\n",
              static_cast<unsigned long long>(snap.compaction_pages_copied),
              static_cast<unsigned long long>(snap.compaction_pages_merged));
  std::printf("  tuning: fan-in %zu, tier ratio %.1f, trigger %zu; "
              "stable-file bound %zu\n",
              engine.compaction_config().max_fanin,
              engine.compaction_config().tier_ratio,
              engine.compaction_config().trigger_files,
              engine.CompactionFileBound());
  return 0;
}

/// Set by SIGINT/SIGTERM; `bstool serve` polls it.
volatile std::sig_atomic_t g_serve_stop = 0;

void HandleServeSignal(int) { g_serve_stop = 1; }

int CmdServe(int argc, char** argv) {
  if (argc < 1) return Usage();
  EngineOptions engine_opt;
  engine_opt.data_dir = argv[0];
  ServerOptions server_opt;
  size_t port = 0, workers = server_opt.workers;
  size_t event_loops = server_opt.event_loops;
  size_t max_pipeline_depth = server_opt.max_pipeline_depth;
  size_t shards = 0, flush_workers = 0;
  size_t max_inflight_requests = server_opt.max_inflight_requests;
  size_t max_inflight_bytes = server_opt.max_inflight_bytes;
  std::string host = server_opt.host, port_file;
  std::string cluster_spec, node_id;
  bool wal_fsync = false;
  bool compaction = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--wal-fsync") == 0) {
      wal_fsync = true;
      continue;
    }
    if (std::strcmp(argv[i], "--compaction") == 0) {
      compaction = true;
      continue;
    }
    if (FlagStr(argv[i], "--host", &host) ||
        FlagStr(argv[i], "--cluster", &cluster_spec) ||
        FlagStr(argv[i], "--node-id", &node_id) ||
        FlagStr(argv[i], "--port-file", &port_file) ||
        FlagValue(argv[i], "--port", &port) ||
        FlagValue(argv[i], "--workers", &workers) ||
        FlagValue(argv[i], "--event-loops", &event_loops) ||
        FlagValue(argv[i], "--max-pipeline-depth", &max_pipeline_depth) ||
        FlagValue(argv[i], "--shards", &shards) ||
        FlagValue(argv[i], "--flush-workers", &flush_workers) ||
        FlagValue(argv[i], "--max-inflight-requests",
                  &max_inflight_requests) ||
        FlagValue(argv[i], "--max-inflight-bytes", &max_inflight_bytes)) {
      continue;
    }
    std::fprintf(stderr, "unknown option: %s\n", argv[i]);
    return Usage();
  }
  if (port > 65535) {
    std::fprintf(stderr, "error: --port=%zu out of range [0, 65535]\n", port);
    return 2;
  }
  engine_opt.shard_count = shards;
  engine_opt.flush_workers = flush_workers;
  engine_opt.wal_fsync = wal_fsync;
  engine_opt.compaction_enabled = compaction;
  server_opt.host = host;
  server_opt.port = static_cast<uint16_t>(port);
  server_opt.workers = workers;
  server_opt.event_loops = event_loops;
  server_opt.max_pipeline_depth = max_pipeline_depth;
  server_opt.max_inflight_requests = max_inflight_requests;
  server_opt.max_inflight_bytes = max_inflight_bytes;

  // Cluster mode wraps the same server in a ClusterNode, which turns the
  // engine's ship log on and ships writes to the ring follower.
  std::unique_ptr<ClusterNode> node;
  std::unique_ptr<BacksortServer> plain;
  BacksortServer* server = nullptr;
  if (!cluster_spec.empty()) {
    ClusterConfig config;
    if (Status st = ClusterConfig::Parse(cluster_spec, &config); !st.ok()) {
      return Fail(st);
    }
    size_t index = 0;
    if (!node_id.empty()) {
      index = config.IndexOf(node_id);
      if (index == ClusterConfig::npos) {
        std::fprintf(stderr, "error: --node-id=%s is not in the cluster map\n",
                     node_id.c_str());
        return 2;
      }
    } else if (config.size() > 1) {
      std::fprintf(stderr,
                   "error: --cluster with multiple nodes needs --node-id\n");
      return 2;
    }
    node = std::make_unique<ClusterNode>(std::move(config), index,
                                         std::move(engine_opt),
                                         std::move(server_opt));
    if (Status st = node->Start(); !st.ok()) return Fail(st);
    server = node->server();
  } else {
    plain = std::make_unique<BacksortServer>(std::move(engine_opt),
                                             std::move(server_opt));
    if (Status st = plain->Start(); !st.ok()) return Fail(st);
    server = plain.get();
  }
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", server->port());
    std::fclose(f);
  }
  if (node != nullptr) {
    std::printf("serving %s on %s:%u as cluster node %s; Ctrl-C stops\n",
                argv[0], host.c_str(), server->port(), node->id().c_str());
  } else {
    std::printf("serving %s on %s:%u (%zu event loops, %zu workers); "
                "Ctrl-C stops\n",
                argv[0], host.c_str(), server->port(), event_loops, workers);
  }
  std::fflush(stdout);

  std::signal(SIGINT, HandleServeSignal);
  std::signal(SIGTERM, HandleServeSignal);
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (node != nullptr) {
    node->Stop();
  } else {
    plain->Stop();
  }

  const NetMetricsSnapshot net = server->GetNetMetrics();
  std::printf("shutdown: %llu connections, %llu overload sheds, "
              "%llu protocol errors\n",
              static_cast<unsigned long long>(net.connections_total),
              static_cast<unsigned long long>(net.overload_rejections),
              static_cast<unsigned long long>(net.protocol_errors));
  for (size_t i = 0; i < kNumMsgTypes; ++i) {
    if (net.requests_total[i] == 0) continue;
    const MsgType type = static_cast<MsgType>(i + 1);
    std::printf("  %-16s %10llu requests, p99 %.3f ms\n", MsgTypeName(type),
                static_cast<unsigned long long>(net.requests_total[i]),
                net.request_duration[i].Percentile(99) / 1e6);
  }
  if (node != nullptr) {
    const ClusterMetricsSnapshot ship = node->metrics()->Snapshot();
    std::printf("replication: %llu chunks shipped (%llu records, %llu acked),"
                " %llu errors, %llu reconnects, %llu bytes backlog\n",
                static_cast<unsigned long long>(ship.ship_chunks),
                static_cast<unsigned long long>(ship.ship_records),
                static_cast<unsigned long long>(ship.acked_records),
                static_cast<unsigned long long>(ship.ship_errors),
                static_cast<unsigned long long>(ship.reconnects),
                static_cast<unsigned long long>(ship.backlog_bytes));
  }
  return 0;
}

/// `bstool client --servers=...`: per-sensor routing over the cluster
/// hash, with automatic failover to the sensor's replica (satellite of
/// the cluster subsystem; docs/OPERATIONS.md "Running a cluster").
int CmdClusterClient(const std::string& servers, int argc, char** argv) {
  if (argc < 1) return Usage();
  ClusterConfig config;
  if (Status st = ClusterConfig::Parse(servers, &config); !st.ok()) {
    return Fail(st);
  }
  ClusterClient client(std::move(config));
  const std::string op = argv[0];
  --argc;
  ++argv;

  if (op == "write") {
    if (argc < 2) return Usage();
    const std::string sensor = argv[0];
    const size_t count = CountArg(argv[1], "<count>");
    size_t t0 = 0, batch = 500;
    for (int i = 2; i < argc; ++i) {
      if (FlagValue(argv[i], "--t0", &t0) ||
          FlagValue(argv[i], "--batch", &batch)) {
        continue;
      }
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return Usage();
    }
    WallTimer timer;
    std::vector<TvPairDouble> points;
    for (size_t i = 0; i < count;) {
      points.clear();
      for (size_t j = 0; j < batch && i < count; ++j, ++i) {
        const Timestamp t = static_cast<Timestamp>(t0 + i);
        points.push_back({t, static_cast<double>(i)});
      }
      if (Status st = client.WriteBatch(sensor, points); !st.ok()) {
        return Fail(st);
      }
    }
    const size_t primary = client.router().PrimaryFor(sensor);
    std::printf("wrote %zu points to %s via %s in %.3f ms (%llu failovers)\n",
                count, sensor.c_str(),
                client.config().nodes[primary].id.c_str(),
                timer.ElapsedMillis(),
                static_cast<unsigned long long>(client.failovers()));
    return 0;
  }
  if (op == "query") {
    if (argc < 3) return Usage();
    const Timestamp t0 = TimestampArg(argv[1], "<t0>");
    const Timestamp t1 = TimestampArg(argv[2], "<t1>");
    std::vector<TvPairDouble> points;
    if (Status st = client.Query(argv[0], t0, t1, &points); !st.ok()) {
      return Fail(st);
    }
    std::printf("timestamp,value\n");
    for (const TvPairDouble& p : points) {
      std::printf("%lld,%.17g\n", static_cast<long long>(p.t), p.v);
    }
    return 0;
  }
  if (op == "latest") {
    if (argc < 1) return Usage();
    TvPairDouble p{};
    if (Status st = client.GetLatest(argv[0], &p); !st.ok()) return Fail(st);
    std::printf("%lld,%.17g\n", static_cast<long long>(p.t), p.v);
    return 0;
  }
  if (op == "agg") {
    if (argc < 3) return Usage();
    const Timestamp t0 = TimestampArg(argv[1], "<t0>");
    const Timestamp t1 = TimestampArg(argv[2], "<t1>");
    TsFileReader::RangeStats stats;
    bool fast = false;
    if (Status st = client.AggregateFast(argv[0], t0, t1, &stats, &fast);
        !st.ok()) {
      return Fail(st);
    }
    std::printf("count=%zu sum=%.17g min=%.17g max=%.17g first=%.17g "
                "last=%.17g fast_path=%d\n",
                stats.count, stats.sum, stats.min, stats.max, stats.first,
                stats.last, fast ? 1 : 0);
    return 0;
  }
  std::fprintf(stderr, "unknown cluster client op: %s\n", op.c_str());
  return Usage();
}

int CmdClient(int argc, char** argv) {
  if (argc < 2) return Usage();
  {
    std::string servers;
    if (FlagStr(argv[0], "--servers", &servers)) {
      return CmdClusterClient(servers, argc - 1, argv + 1);
    }
  }
  const std::string addr = argv[0];
  const size_t colon = addr.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "error: address must be host:port, got %s\n",
                 addr.c_str());
    return 2;
  }
  const std::string host = addr.substr(0, colon);
  const char* port_str = addr.c_str() + colon + 1;
  char* port_end = nullptr;
  const unsigned long port_val = std::strtoul(port_str, &port_end, 10);
  if (port_str[0] == '\0' || port_end == nullptr || *port_end != '\0' ||
      port_val > 65535) {
    std::fprintf(stderr, "error: invalid port in %s (want [0, 65535])\n",
                 addr.c_str());
    return 2;
  }
  const uint16_t port = static_cast<uint16_t>(port_val);
  const std::string op = argv[1];
  argc -= 2;
  argv += 2;

  // Each op parses all of its arguments before it connects, so a
  // malformed one exits 2 whether or not the server is up.
  BacksortClient client;
  auto connect = [&client, &host, port]() {
    return client.Connect(host, port);
  };

  if (op == "ping") {
    if (Status st = connect(); !st.ok()) return Fail(st);
    WallTimer timer;
    if (Status st = client.Ping(); !st.ok()) return Fail(st);
    std::printf("PONG from %s in %.3f ms\n", addr.c_str(),
                timer.ElapsedMillis());
    return 0;
  }
  if (op == "write") {
    if (argc < 2) return Usage();
    const std::string sensor = argv[0];
    const size_t count = CountArg(argv[1], "<count>");
    size_t t0 = 0, batch = 500, pipeline = 0;
    for (int i = 2; i < argc; ++i) {
      if (FlagValue(argv[i], "--t0", &t0) ||
          FlagValue(argv[i], "--batch", &batch) ||
          FlagValue(argv[i], "--pipeline", &pipeline)) {
        continue;
      }
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return Usage();
    }
    if (Status st = connect(); !st.ok()) return Fail(st);
    WallTimer timer;
    std::vector<TvPairDouble> points;
    for (size_t i = 0; i < count;) {
      points.clear();
      for (size_t j = 0; j < batch && i < count; ++j, ++i) {
        const Timestamp t = static_cast<Timestamp>(t0 + i);
        points.push_back({t, static_cast<double>(i)});
      }
      if (pipeline > 1) {
        // Send without waiting; drain whenever the window fills (and
        // once more after the loop for the tail).
        if (Status st = client.PipelineWriteBatch(sensor, points); !st.ok()) {
          return Fail(st);
        }
        if (client.pipeline_depth() >= pipeline) {
          if (Status st = client.PipelineDrain(); !st.ok()) return Fail(st);
        }
      } else if (Status st = client.WriteBatch(sensor, points); !st.ok()) {
        return Fail(st);
      }
    }
    if (Status st = client.PipelineDrain(); !st.ok()) return Fail(st);
    std::printf("wrote %zu points to %s in %.3f ms%s\n", count, sensor.c_str(),
                timer.ElapsedMillis(),
                pipeline > 1 ? " (pipelined)" : "");
    return 0;
  }
  if (op == "query") {
    if (argc < 3) return Usage();
    const Timestamp t0 = TimestampArg(argv[1], "<t0>");
    const Timestamp t1 = TimestampArg(argv[2], "<t1>");
    if (Status st = connect(); !st.ok()) return Fail(st);
    std::vector<TvPairDouble> points;
    if (Status st = client.Query(argv[0], t0, t1, &points); !st.ok()) {
      return Fail(st);
    }
    std::printf("timestamp,value\n");
    for (const TvPairDouble& p : points) {
      std::printf("%lld,%.17g\n", static_cast<long long>(p.t), p.v);
    }
    return 0;
  }
  if (op == "latest") {
    if (argc < 1) return Usage();
    if (Status st = connect(); !st.ok()) return Fail(st);
    TvPairDouble p{};
    if (Status st = client.GetLatest(argv[0], &p); !st.ok()) return Fail(st);
    std::printf("%lld,%.17g\n", static_cast<long long>(p.t), p.v);
    return 0;
  }
  if (op == "agg") {
    if (argc < 3) return Usage();
    const Timestamp t0 = TimestampArg(argv[1], "<t0>");
    const Timestamp t1 = TimestampArg(argv[2], "<t1>");
    if (Status st = connect(); !st.ok()) return Fail(st);
    TsFileReader::RangeStats stats;
    bool fast = false;
    if (Status st = client.AggregateFast(argv[0], t0, t1, &stats, &fast);
        !st.ok()) {
      return Fail(st);
    }
    std::printf("count=%zu sum=%.17g min=%.17g max=%.17g first=%.17g "
                "last=%.17g fast_path=%d\n",
                stats.count, stats.sum, stats.min, stats.max, stats.first,
                stats.last, fast ? 1 : 0);
    // Server-side plan effectiveness: sum the statistics-plan counters
    // out of the metrics exposition (the agg response itself is
    // unchanged by the statistics format, so the rate rides on a second
    // request).
    std::string exposition;
    if (client.MetricsSnapshot(&exposition).ok()) {
      auto family_sum = [&exposition](const std::string& name) {
        double sum = 0;
        size_t pos = 0;
        while ((pos = exposition.find(name, pos)) != std::string::npos) {
          // Start of line, and not a longer family name.
          if ((pos == 0 || exposition[pos - 1] == '\n') &&
              (exposition[pos + name.size()] == ' ' ||
               exposition[pos + name.size()] == '{')) {
            const size_t sp = exposition.find(' ', pos);
            if (sp != std::string::npos) {
              sum += std::strtod(exposition.c_str() + sp + 1, nullptr);
            }
          }
          pos += name.size();
        }
        return sum;
      };
      const double hits = family_sum("backsort_agg_stats_hits_total");
      const double misses = family_sum("backsort_agg_stats_misses_total");
      if (hits + misses > 0) {
        std::printf("server stats-hit rate: %.1f%% (%.0f hits / %.0f "
                    "misses, cumulative)\n",
                    100.0 * hits / (hits + misses), hits, misses);
      }
    }
    return 0;
  }
  if (op == "metrics") {
    if (Status st = connect(); !st.ok()) return Fail(st);
    std::string exposition;
    if (Status st = client.MetricsSnapshot(&exposition); !st.ok()) {
      return Fail(st);
    }
    std::fwrite(exposition.data(), 1, exposition.size(), stdout);
    return 0;
  }
  std::fprintf(stderr, "unknown client op: %s\n", op.c_str());
  return Usage();
}

int CmdAlgos() {
  for (SorterId id : AllSorters()) {
    std::printf("%s\n", SorterName(id).c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "inspect") return CmdInspect(argc - 2, argv + 2);
  if (cmd == "dump") return CmdDump(argc - 2, argv + 2);
  if (cmd == "gen") return CmdGen(argc - 2, argv + 2);
  if (cmd == "sort") return CmdSort(argc - 2, argv + 2);
  if (cmd == "iir") return CmdIir(argc - 2, argv + 2);
  if (cmd == "ingest") return CmdIngest(argc - 2, argv + 2);
  if (cmd == "compact") return CmdCompact(argc - 2, argv + 2);
  if (cmd == "metrics") return CmdMetrics(argc - 2, argv + 2);
  if (cmd == "watch") return CmdWatch(argc - 2, argv + 2);
  if (cmd == "serve") return CmdServe(argc - 2, argv + 2);
  if (cmd == "client") return CmdClient(argc - 2, argv + 2);
  if (cmd == "algos") return CmdAlgos();
  return Usage();
}

}  // namespace
}  // namespace backsort

int main(int argc, char** argv) { return backsort::Main(argc, argv); }
