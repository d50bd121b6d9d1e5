// Batched vs per-point ingest over the engine's single write path.
// Identical per-sensor disordered streams are ingested twice into fresh
// engines — once point by point through Write(), which is a one-point
// group commit (one shard-lock acquisition and one WAL batch record per
// point), and once through WriteBatch() in group commits of
// BACKSORT_INGEST_BATCH points. Both sides run the same shard code; only
// the group size differs. Prints both throughputs and writes
// $BACKSORT_METRICS_DIR/BENCH_ingest.json with the per-stage p50/p99 and
// "speedup_batched_over_per_point" — tools/ci.sh's perf smoke gates on
// that key staying >= 1.5. Scale knobs:
//   BACKSORT_SYSTEM_POINTS    total points per side     (default 200'000)
//   BACKSORT_INGEST_THREADS   writer threads = sensors  (default 4)
//   BACKSORT_INGEST_BATCH     points per batch          (default 500)

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/system_bench.h"
#include "engine/storage_engine.h"

namespace backsort::bench {
namespace {

struct SideStats {
  double seconds = 0;
  EngineMetricsSnapshot snap;
};

int Run() {
  const size_t total = EnvSize("BACKSORT_SYSTEM_POINTS", 200'000);
  const size_t threads =
      std::max<size_t>(EnvSize("BACKSORT_INGEST_THREADS", 4), 1);
  const size_t batch = std::max<size_t>(EnvSize("BACKSORT_INGEST_BATCH", 500),
                                        1);
  const size_t per_sensor = std::max<size_t>(total / threads, 1);

  // One disordered arrival stream per sensor, generated once and shared by
  // both sides, so the two engines ingest identical bytes.
  std::vector<std::vector<TvPairDouble>> streams(threads);
  {
    Rng rng(42);
    AbsNormalDelay delay(1, 10.0);
    for (auto& stream : streams) {
      const auto ts = GenerateArrivalOrderedTimestamps(per_sensor, delay, rng);
      stream.reserve(ts.size());
      for (const Timestamp t : ts) {
        stream.push_back({t, static_cast<double>(t) * 0.5});
      }
    }
  }

  const std::filesystem::path base =
      std::filesystem::temp_directory_path() /
      ("backsort_system_ingest_" + std::to_string(::getpid()));
  std::error_code ec;
  std::filesystem::remove_all(base, ec);

  std::printf("system_ingest: %zu points/side, %zu threads, batch %zu\n",
              per_sensor * threads, threads, batch);

  auto run_side = [&](const std::string& name, bool batched,
                      SideStats* out) -> bool {
    EngineOptions opt;
    opt.data_dir = (base / name).string();
    StorageEngine engine(opt);
    if (Status st = engine.Open(); !st.ok()) {
      std::fprintf(stderr, "engine open failed: %s\n", st.ToString().c_str());
      return false;
    }
    std::atomic<bool> failed{false};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    WallTimer timer;
    for (size_t c = 0; c < threads; ++c) {
      workers.emplace_back([&, c] {
        const std::string sensor = "ingest.sensor." + std::to_string(c);
        const std::vector<TvPairDouble>& stream = streams[c];
        if (batched) {
          std::vector<TvPairDouble> chunk;
          for (size_t i = 0; i < stream.size(); i += batch) {
            const size_t n = std::min(batch, stream.size() - i);
            chunk.assign(stream.begin() + static_cast<ptrdiff_t>(i),
                         stream.begin() + static_cast<ptrdiff_t>(i + n));
            if (!engine.WriteBatch(sensor, chunk).ok()) {
              failed.store(true);
              return;
            }
          }
        } else {
          for (const TvPairDouble& p : stream) {
            if (!engine.Write(sensor, p.t, p.v).ok()) {
              failed.store(true);
              return;
            }
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    out->seconds = timer.ElapsedSeconds();
    if (failed.load()) {
      std::fprintf(stderr, "%s ingest failed\n", name.c_str());
      return false;
    }
    // Flush outside the timed region: the comparison isolates the staging
    // path (lock + WAL + memtable), which is what batching amortizes.
    if (Status st = engine.FlushAll(); !st.ok()) {
      std::fprintf(stderr, "flush failed: %s\n", st.ToString().c_str());
      return false;
    }
    out->snap = engine.GetMetricsSnapshot();
    return true;
  };

  SideStats per_point, batched;
  if (!run_side("per_point", /*batched=*/false, &per_point)) return 1;
  if (!run_side("batched", /*batched=*/true, &batched)) return 1;
  std::filesystem::remove_all(base, ec);

  const double n = static_cast<double>(per_sensor * threads);
  const double pp_pps = per_point.seconds > 0 ? n / per_point.seconds : 0;
  const double b_pps = batched.seconds > 0 ? n / batched.seconds : 0;
  const double speedup = pp_pps > 0 ? b_pps / pp_pps : 0;

  PrintTitle("batched vs per-point ingest (staging throughput)");
  PrintHeader("path", {"kpts/s", "seconds"});
  PrintRow("one-point Write", {pp_pps / 1e3, per_point.seconds});
  PrintRow("batched WriteBatch", {b_pps / 1e3, batched.seconds});
  std::printf("speedup (batched / per-point): %.2fx\n", speedup);

  JsonWriter json;
  json.Field("bench", "system_ingest");
  json.Field("points", per_sensor * threads);
  json.Field("threads", threads);
  json.Field("batch", batch);
  const struct {
    const char* key;
    const SideStats& side;
    double pps;
  } sides[] = {{"per_point", per_point, pp_pps}, {"batched", batched, b_pps}};
  for (const auto& s : sides) {
    json.BeginObject(s.key);
    json.Field("points_per_sec", s.pps);
    json.Field("seconds", s.side.seconds);
    json.Field("flushes", s.side.snap.total_completed_flushes());
    json.Field("batch_writes", static_cast<size_t>(s.side.snap.batch_writes));
    json.Field("batch_points", static_cast<size_t>(s.side.snap.batch_points));
    JsonStagePercentiles(json, s.side.snap.stages);
    json.EndObject();
  }
  json.Field("speedup_batched_over_per_point", speedup);
  // Historical reference (bench/system_net, 400k points, 4 clients) from
  // before WriteBatch was batch-native, when it still applied a wire batch
  // point by point: loopback 1236.495 kpts/s, in-process 1879.831 kpts/s.
  json.Field("pr4_net_loopback_write_kpts_per_sec", 1236.495);
  json.Field("pr4_net_in_process_write_kpts_per_sec", 1879.831);
  WriteBenchJson(json, "ingest");
  return 0;
}

}  // namespace
}  // namespace backsort::bench

int main() { return backsort::bench::Run(); }
