// Fleet dashboard: windowed aggregation over disordered ingestion — "the
// average speed of an engine in every minute" computation that the paper's
// downstream-application section uses to motivate ordering by time.
//
// Ingests jittered streams from a fleet of devices, then renders a text
// dashboard of per-minute mean/min/max per sensor, demonstrating that the
// aggregates computed through the engine (which sorts on flush and query)
// match the physically ordered ground truth.
//
// Run: ./fleet_dashboard

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "disorder/series_generator.h"
#include "engine/aggregate.h"
#include "engine/storage_engine.h"

int main() {
  using namespace backsort;

  const auto dir = std::filesystem::temp_directory_path() /
                   "backsort_fleet_dashboard_example";
  std::filesystem::remove_all(dir);

  EngineOptions options;
  options.data_dir = dir.string();
  options.sorter = SorterId::kBackward;
  options.memtable_flush_threshold = 50'000;
  StorageEngine engine(options);
  if (Status st = engine.Open(); !st.ok()) {
    std::fprintf(stderr, "open failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // One reading per second per device; 2 hours of data; delays up to
  // minutes for the flaky device.
  constexpr size_t kSeconds = 7200;
  const struct {
    const char* name;
    double mu, sigma;
  } devices[] = {
      {"root.fleet.truck1.speed", 1, 5},
      {"root.fleet.truck2.speed", 1, 30},
      {"root.fleet.truck3.speed", 4, 120},  // flaky uplink
  };

  Rng rng(17);
  for (const auto& d : devices) {
    AbsNormalDelay delay(d.mu, d.sigma);
    const auto stream =
        GenerateArrivalOrderedSeries<double>(kSeconds, delay, rng);
    size_t inversions_seen = 0;
    Timestamp prev = -1;
    for (const auto& p : stream) {
      if (p.t < prev) ++inversions_seen;
      prev = std::max(prev, p.t);
      if (Status st = engine.Write(d.name, p.t, p.v); !st.ok()) {
        std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    std::printf("%-28s ingested %zu readings (%zu arrived late)\n", d.name,
                stream.size(), inversions_seen);
  }
  if (Status st = engine.FlushAll(); !st.ok()) {
    std::fprintf(stderr, "flush failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // Dashboard: last 10 minutes, per-minute aggregates.
  constexpr Timestamp kWindow = 60;
  const Timestamp t_end = kSeconds - 1;
  const Timestamp t_begin = t_end - 10 * kWindow + 1;
  std::printf("\n=== fleet dashboard: per-minute mean (min..max), last 10 "
              "minutes ===\n");
  for (const auto& d : devices) {
    std::vector<WindowAggregate> windows;
    if (Status st = WindowedAggregate(engine, d.name, t_begin, t_end, kWindow,
                                      &windows);
        !st.ok()) {
      std::fprintf(stderr, "aggregate failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("\n%s\n", d.name);
    double max_err = 0.0;
    for (const auto& w : windows) {
      // Ground truth from the generator's signal, for verification.
      double truth = 0.0;
      for (Timestamp t = w.window_start; t < w.window_start + kWindow; ++t) {
        truth += SignalValueAt(static_cast<size_t>(t));
      }
      truth /= kWindow;
      max_err = std::max(max_err, std::fabs(truth - w.mean));
      std::printf("  minute @%5lld : %8.2f  (%7.2f ..%7.2f)  n=%zu\n",
                  static_cast<long long>(w.window_start), w.mean,
                  w.agg.min, w.agg.max, w.agg.count);
    }
    std::printf("  max deviation from ordered ground truth: %.2e\n", max_err);
  }
  return 0;
}
