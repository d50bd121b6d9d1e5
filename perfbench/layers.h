#ifndef BACKSORT_PERFBENCH_LAYERS_H_
#define BACKSORT_PERFBENCH_LAYERS_H_

// Per-layer metrics of the traced run. Layers are timed from the
// benchmark's side only, by calling each module's public functions on the
// run's own data inside spans: the engine by replaying the traced pass's
// request log into an in-process StorageEngine; wire codec, CRC, WAL,
// memtable, sort, encoding and TsFile reads on the run's own batches,
// flush-sized snapshots and sealed file; the rest from the server's own
// counters (net, cache, flush, compaction).

#include "harness.h"
#include "workloads.h"

namespace backsort::perf {

/// Fills `out` with every per-layer metric. `traced` is the traced pass,
/// `untraced` a plain pass of the same seed; spans of the replay and the
/// layer probes go to `tracer`.
Status MeasureLayers(const PassConfig& cfg, const StreamModel& model,
                     const PassResult& traced, const PassResult& untraced,
                     Tracer* tracer, MetricTable* out);

/// Names and units of every per-layer metric, in report order.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames();

}  // namespace backsort::perf

#endif  // BACKSORT_PERFBENCH_LAYERS_H_
