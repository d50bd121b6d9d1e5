#ifndef BACKSORT_COMMON_ENGINE_METRICS_H_
#define BACKSORT_COMMON_ENGINE_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/chunk_cache.h"
#include "common/latency_histogram.h"
#include "common/stats.h"

namespace backsort {

/// Server-side flush metrics (paper Section VI-D2): per-flush wall time of
/// the whole pipeline (sort + encode + I/O) and of the sort step alone.
/// Each EngineShard accumulates its own copy; the engine facade merges them
/// into one engine-wide view.
struct FlushMetrics {
  /// Whole flush pipeline wall time per flush, milliseconds.
  RunningStats flush_ms;
  /// TVList sort time inside the flush, milliseconds.
  RunningStats sort_ms;

  /// Folds another shard's accumulators into this one.
  void Merge(const FlushMetrics& other) {
    flush_ms.Merge(other.flush_ms);
    sort_ms.Merge(other.sort_ms);
  }
};

/// One completed flush as a lightweight trace span, retrievable from the
/// metrics snapshot (each shard keeps the most recent flushes in a fixed
/// ring buffer). Times are steady-clock nanoseconds since the engine's
/// construction (`seal_ns`/`dequeue_ns`/`publish_ns` are points on that
/// clock; `sort_ns`/`encode_ns`/`fsync_ns` are phase durations inside
/// [dequeue_ns, publish_ns], because sort and encode interleave per sensor
/// chunk rather than forming two contiguous windows).
struct FlushTrace {
  /// Shard that owned the flushed memtable.
  size_t shard_id = 0;
  /// Per-shard seal sequence number (publication order).
  uint64_t seq = 0;
  /// True for a sequence-memtable flush, false for unsequence.
  bool sequence = false;
  /// Points in the flushed memtable.
  size_t points = 0;
  /// When the memtable was sealed into the flush queue.
  int64_t seal_ns = 0;
  /// When a flush worker dequeued the job (queue wait = dequeue - seal).
  int64_t dequeue_ns = 0;
  /// When the TsFile was published and the memtable retired.
  int64_t publish_ns = 0;
  /// Total sort time of the per-sensor flat copies within this flush.
  int64_t sort_ns = 0;
  /// Total encode+write time (TVList copy-out, column building, encodings,
  /// page writes).
  int64_t encode_ns = 0;
  /// File seal time: footer write + flush to the OS (TsFileWriter::Finish).
  int64_t fsync_ns = 0;

  /// Time the sealed memtable waited in the flush queue.
  int64_t queue_wait_ns() const { return dequeue_ns - seal_ns; }
  /// Whole pipeline wall time, dequeue to publish.
  int64_t pipeline_ns() const { return publish_ns - dequeue_ns; }
};

/// Engine-wide write-path latency distributions, one histogram snapshot per
/// instrumented stage. All values are nanoseconds; recording is lock-free
/// (relaxed atomics shared by every shard and flush worker).
struct StageLatencySnapshots {
  /// One group commit applied to a shard (a Write call is a one-point
  /// group): separation partition + WAL batch record + bulk memtable
  /// appends, including shard-lock wait (and inline flush stalls when
  /// async_flush is off) — the client-visible write latency.
  HistogramSnapshot batch_apply;
  /// Seal -> dequeue wait of a sealed memtable in the flush queue.
  HistogramSnapshot queue_wait;
  /// Per-flush total TVList sort time.
  HistogramSnapshot sort;
  /// One per-sensor sort+encode job inside a flush (one sample per sensor
  /// per flush).
  HistogramSnapshot sort_job;
  /// Per-flush total encode+write time.
  HistogramSnapshot encode;
  /// Per-flush file seal (footer + flush to OS) time.
  HistogramSnapshot seal;
  /// Per-flush whole pipeline (dequeue -> publish) wall time.
  HistogramSnapshot flush;

  /// Folds another set of stage snapshots into this one, bucket-wise.
  void Merge(const StageLatencySnapshots& other) {
    batch_apply.Merge(other.batch_apply);
    queue_wait.Merge(other.queue_wait);
    sort.Merge(other.sort);
    sort_job.Merge(other.sort_job);
    encode.Merge(other.encode);
    seal.Merge(other.seal);
    flush.Merge(other.flush);
  }
};

/// Engine-wide read-path latency distributions, one histogram snapshot per
/// query stage. All values are nanoseconds; recording is lock-free. The
/// stages partition one Query call: only `snapshot` runs under the shard
/// lock — everything after it (pruning, file reads, merge) is lock-free,
/// which is the read-path contract these histograms make observable.
struct QueryStageSnapshots {
  /// Consistent-snapshot acquisition under the shard lock: copying the
  /// sealed-file refs, flushing-table refs and working-memtable points.
  HistogramSnapshot snapshot;
  /// Footer-based file-level pruning of the sealed-file list.
  HistogramSnapshot prune;
  /// File/cache reads + memtable collection + query-time sorting.
  HistogramSnapshot read;
  /// K-way last-write-wins merge of the gathered runs.
  HistogramSnapshot merge;

  /// Folds another set of stage snapshots into this one, bucket-wise.
  void Merge(const QueryStageSnapshots& other) {
    snapshot.Merge(other.snapshot);
    prune.Merge(other.prune);
    read.Merge(other.read);
    merge.Merge(other.merge);
  }
};

/// Aggregation-path latency distributions, one histogram snapshot per
/// stage of an AggregateFast call. All values are nanoseconds; recording
/// is lock-free. The stages partition the three-tier plan: `plan` is the
/// snapshot + shadow classification, `stats` folds footer statistics of
/// fully covered chunks (tier 1), `decode` runs the page-level partial
/// aggregation and the exact fallback reads (tiers 2/3), `merge` combines
/// the partials into the final answer.
struct AggregateStageSnapshots {
  HistogramSnapshot plan;
  HistogramSnapshot stats;
  HistogramSnapshot decode;
  HistogramSnapshot merge;

  /// Folds another set of stage snapshots into this one, bucket-wise.
  void Merge(const AggregateStageSnapshots& other) {
    plan.Merge(other.plan);
    stats.Merge(other.stats);
    decode.Merge(other.decode);
    merge.Merge(other.merge);
  }
};

/// Compaction-path latency distributions, one histogram snapshot per
/// stage of a compaction cycle. All values are nanoseconds; recording is
/// lock-free like the other stage histograms.
struct CompactionStageSnapshots {
  /// One planner pass: registry snapshot + size-tier grouping (one sample
  /// per scheduler poll or explicit CompactStep, performed or not).
  HistogramSnapshot plan;
  /// One CompactionJob: streaming loser-tree merge of the input window
  /// into the renamed output file (dominant stage; runs without any
  /// engine lock held).
  HistogramSnapshot merge;
  /// Registry swap of one completed job: shard locks + files_mu window
  /// replacement + obsolete marking — the only part foreground writers
  /// can contend with.
  HistogramSnapshot publish;

  /// Folds another set of stage snapshots into this one, bucket-wise.
  void Merge(const CompactionStageSnapshots& other) {
    plan.Merge(other.plan);
    merge.Merge(other.merge);
    publish.Merge(other.publish);
  }
};

/// Point-in-time view of one shard's write-path state.
struct ShardMetricsSnapshot {
  /// Index of the shard within the engine ([0, shard_count)).
  size_t shard_id = 0;
  /// Sealed memtables waiting in (or executing from) the flush queue.
  size_t queued_flushes = 0;
  /// Sealed memtables not yet fully on disk (still visible to queries).
  size_t flushing_tables = 0;
  /// Flushes completed since the engine opened.
  size_t completed_flushes = 0;
  /// Points buffered in the shard's working seq+unseq memtables.
  size_t working_points = 0;
  /// Approximate heap bytes of the working memtables.
  size_t working_bytes = 0;
  /// Distinct sensors this shard has interned (dense SensorId space).
  size_t sensor_count = 0;
  /// Exact heap bytes of the per-sensor shard state: interner (name bytes,
  /// hash slots, reverse table) + watermark/last-cache vectors.
  size_t sensor_state_bytes = 0;
  /// Sealed TsFiles this shard consults at query time.
  size_t sealed_files = 0;
  /// Mean/variance flush accumulators (kept alongside the histograms for
  /// the paper's avg-flush-time tables).
  FlushMetrics flush;
  /// Most recent completed flushes, oldest first (bounded ring; see
  /// FlushTrace for field semantics).
  std::vector<FlushTrace> recent_traces;
};

/// Engine-wide metrics: the per-shard breakdown plus the merged totals the
/// benchmark harness reports.
struct EngineMetricsSnapshot {
  /// Merged mean/variance flush accumulators across shards.
  FlushMetrics flush;
  /// Per-shard breakdown, indexed by shard id.
  std::vector<ShardMetricsSnapshot> shards;
  /// Distinct sealed TsFiles across the whole engine.
  size_t sealed_files = 0;
  /// Engine-wide write-path latency histograms (shared by all shards).
  StageLatencySnapshots stages;
  /// Engine-wide read-path latency histograms (shared by all shards).
  QueryStageSnapshots query_stages;
  /// Range queries served since open (Query calls, all shards).
  uint64_t queries = 0;
  /// Sealed files skipped by footer-based time pruning, summed over
  /// queries.
  uint64_t query_files_pruned = 0;
  /// Sealed files that contributed a run to a query (opened or served from
  /// cache), summed over queries.
  uint64_t query_files_opened = 0;
  /// Bytes read from sealed chunks by Query and AggregateFast: spans of
  /// overlapping pages plus page-directory derivations on cache misses.
  uint64_t sealed_bytes_read = 0;
  /// Sealed pages decoded by Query and AggregateFast.
  uint64_t sealed_pages_decoded = 0;
  /// Aggregation-path stage histograms (plan / stats / decode / merge).
  AggregateStageSnapshots agg_stages;
  /// AggregateFast calls served since open.
  uint64_t agg_requests = 0;
  /// Chunks answered from footer statistics alone (tier 1, no decode).
  uint64_t agg_stats_hits = 0;
  /// Sources that fell to a decoding tier: one per partially covered or
  /// stat-less chunk (tier 2 page-level aggregation) and one per call
  /// routed through the exact merge fallback (tier 3, shadowed range).
  uint64_t agg_stats_misses = 0;
  /// Shared chunk-cache counters (see ChunkCacheStats).
  ChunkCacheStats cache;
  /// Batched write calls applied via the group-commit path since open.
  uint64_t batch_writes = 0;
  /// Points ingested via the batched write path since open.
  uint64_t batch_points = 0;
  /// Compaction-path latency histograms (plan / merge / publish).
  CompactionStageSnapshots compaction_stages;
  /// Compaction jobs completed (registry swapped) since open.
  uint64_t compaction_jobs = 0;
  /// Compaction jobs that failed (corrupt input, I/O error); the registry
  /// is untouched by a failed job.
  uint64_t compaction_failures = 0;
  /// Input files consumed by completed compaction jobs.
  uint64_t compaction_input_files = 0;
  /// Bytes written to compaction output files by completed jobs.
  uint64_t compaction_output_bytes = 0;

  /// Sealed memtables currently queued for flush, summed over shards.
  size_t total_queued_flushes() const {
    size_t n = 0;
    for (const ShardMetricsSnapshot& s : shards) n += s.queued_flushes;
    return n;
  }
  /// Points buffered in working memtables, summed over shards.
  size_t total_working_points() const {
    size_t n = 0;
    for (const ShardMetricsSnapshot& s : shards) n += s.working_points;
    return n;
  }
  /// Flushes completed since open, summed over shards.
  size_t total_completed_flushes() const {
    size_t n = 0;
    for (const ShardMetricsSnapshot& s : shards) n += s.completed_flushes;
    return n;
  }
  /// Approximate working-memtable heap bytes, summed over shards.
  size_t total_working_bytes() const {
    size_t n = 0;
    for (const ShardMetricsSnapshot& s : shards) n += s.working_bytes;
    return n;
  }
};

}  // namespace backsort

#endif  // BACKSORT_COMMON_ENGINE_METRICS_H_
