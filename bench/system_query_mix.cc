// Mixed read/write benchmark for the rebuilt read path: readers repeat
// fixed-range queries while a writer streams disordered points, once with
// the shared chunk cache enabled and once with it off (footer-based file
// pruning is always on).
// Prints write throughput, query p50/p99 latency and the cache hit rate
// per configuration, and writes the full metric registries (query-stage
// histograms, cache counters) to
// $BACKSORT_METRICS_DIR/system_query_mix.metrics.prom.

#include "bench/system_bench.h"

int main() {
  using namespace backsort;
  using namespace backsort::bench;
  MetricsRegistry metrics;
  JsonWriter json;
  json.Field("bench", "system_query_mix");
  AbsNormalDelay mild(1, 1.0);
  RunQueryMix("AbsNormal(1,1)", mild, &metrics, &json);
  AbsNormalDelay heavy(1, 100.0);
  RunQueryMix("AbsNormal(1,100)", heavy, &metrics, &json);
  WriteBenchMetrics(metrics, "system_query_mix");
  WriteBenchJson(json, "system_query_mix");
  return 0;
}
