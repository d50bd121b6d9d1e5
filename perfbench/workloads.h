#ifndef BACKSORT_PERFBENCH_WORKLOADS_H_
#define BACKSORT_PERFBENCH_WORKLOADS_H_

// The three BSN1 workloads (perfbench/README.md): one pass starts an
// in-process BacksortServer, sets it up, drives it over loopback with
// BacksortClient connections, waits for flush and compaction to settle,
// reads every acknowledged point back through the oracle, and keeps the
// server-side counters the traced run turns into per-layer metrics.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/engine_metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "disorder/delay_distribution.h"
#include "engine/engine_options.h"
#include "harness.h"
#include "net/net_metrics.h"
#include "net/server.h"

namespace backsort::perf {

/// Request kinds. The first four are BSN1 RPCs; the rest are the
/// engine-side set-up steps the replay must repeat at the same point.
enum Op : uint8_t { kWrite, kQuery, kAgg, kLatest, kFlushAll, kCompact, kQuiesce };
inline constexpr size_t kNumRpcOps = 4;
/// "write", "query", "agg", "latest".
const char* OpName(Op op);

/// One logged request: a write covers arrivals [a, a + b) of `sensor`; a
/// read covers [a, b].
struct Req {
  Op op = kWrite;
  uint32_t sensor = 0;
  int64_t a = 0;
  int64_t b = 0;
  int64_t sent_ns = 0;
};

/// Fixed parameters of one workload.
struct WorkloadSpec {
  std::string name;
  uint32_t sensors = 0;
  /// Delay distribution of the arrival model.
  std::string delay;
  double delay_mu = 0;
  double delay_sigma = 0;
  /// Closed-loop connections (ingest, read) or 0 for the open loop.
  size_t connections = 0;
  /// Points loaded per sensor over BSN1 during set-up, then flushed.
  uint64_t preload_per_sensor = 0;
  /// Whether set-up also compacts the preload into one file (read).
  bool compact_preload = false;
  /// mixed: offered rates.
  double write_batches_per_s = 0;
  double reads_per_s = 0;
  /// Set-ups per run; setup_s is their median.
  int setup_reps = 1;
};

inline constexpr size_t kBatchPoints = 500;
inline constexpr size_t kPipelineWindow = 8;

/// The spec named `name`; false for an unknown workload.
bool FindWorkload(const std::string& name, WorkloadSpec* out);

std::unique_ptr<DelayDistribution> MakeDelay(const WorkloadSpec& spec);

/// `bstool serve` defaults except sorter = Backward and background
/// compaction on.
EngineOptions BenchEngineOptions(const std::string& dir);

/// The config block: workload, seed, engine and server settings, rates.
std::string ConfigBlockJson(const WorkloadSpec& spec, uint64_t seed,
                            double seconds, const std::string& dir);

struct PassConfig {
  WorkloadSpec spec;
  uint64_t seed = 0;
  double seconds = 10;
  /// Record spans, the request log and server counters.
  bool trace = false;
  /// Scratch directory of this pass (created and removed by the pass).
  std::string dir;
};

/// Server counters around the window the read metrics come from.
struct ReadWindow {
  EngineMetricsSnapshot before;
  EngineMetricsSnapshot after;
  uint64_t requests = 0;
  uint64_t agg_answers = 0;
  uint64_t agg_fast_path = 0;
};

struct PassResult {
  /// Client-side latency per RPC kind, ms: the samples the end-to-end
  /// metrics use (see README.md for which phase feeds which workload).
  std::array<std::vector<double>, kNumRpcOps> latency_ms;
  /// Open loop: how late each request was sent, ms.
  std::vector<double> late_ms;
  double ingest_pts_per_s = 0;
  double read_ops_per_s = 0;
  std::vector<double> setup_s;
  /// Peak RSS of the process once the workload has settled, before the
  /// read-back check, MiB.
  double rss_peak_mb = 0;
  double disk_bytes_per_pt = 0;
  uint64_t acked_points = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  // Trace-only.
  Tracer tracer;
  std::vector<Req> log;
  ReadWindow read_window;
  NetMetricsSnapshot net;
  EngineMetricsSnapshot engine_final;
  FlushMetrics flush;
  uint64_t flush_bytes = 0;
  double ping_rtt_us = 0;
  /// Largest sealed file once quiescent, copied out before the server
  /// directory is removed (tsfile layer probes).
  std::string largest_file;
};

/// Runs one pass of `cfg.spec` and fills `out`. Non-OK only when the
/// pass could not run at all (server start, connect); wrong answers and
/// failed requests are counted in `out`.
Status RunPass(const PassConfig& cfg, const StreamModel& model, PassResult* out);

/// The end-to-end metrics of one plain pass: the gated ones (the names
/// EndToEndMetricNames lists) into `out`, the rest into `info`. Timings
/// are p50 and the highest percentile up to p99 with at least ten samples
/// beyond it. Only timings whose run-to-run spread on a shared 4-core
/// host stays within a 0.25 bound are gated (README.md, "End-to-end
/// metrics"); the others are printed but not compared.
void EndToEndMetrics(const PassResult& r, MetricTable* out, MetricTable* info);

/// Names and units of every gated end-to-end metric.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetricNames();

/// Flushes everything, then runs tiered compaction steps until the
/// planner has nothing left to merge.
Status Quiesce(StorageEngine* engine);

/// The `i`-th read request of a closed-loop read connection.
struct ReadOp {
  Op op = kQuery;
  uint32_t sensor = 0;
  Timestamp t_min = 0;
  Timestamp t_max = 0;
};
ReadOp NextReadOp(Rng& rng, const WorkloadSpec& spec, Timestamp span,
                  uint64_t i);

/// Generator of read stream `stream` of a run: `read` times streams
/// 0 .. connections-1, `ingest` probes after set-up r with streams
/// r * connections + c, and `mixed`'s reader is kMixedReadStream.
Rng ReadRng(uint64_t seed, uint64_t stream);
inline constexpr uint64_t kMixedReadStream = 6;

/// Sensor and kind of the `mixed` reader's next request; its time window
/// follows the writer's progress and is set when the request is due.
ReadOp NextMixedReadOp(Rng& rng, const WorkloadSpec& spec);

/// The request-stream digest (FNV-1a, benchkit/digest.h): the arrival
/// model, the first batch of every sensor in each of its first 8 blocks,
/// and the first `n` requests of every read stream the workload issues,
/// with the workload's own spans.
uint64_t RequestStreamDigest(const WorkloadSpec& spec, const StreamModel& model,
                             uint64_t seed, size_t n);

}  // namespace backsort::perf

#endif  // BACKSORT_PERFBENCH_WORKLOADS_H_
