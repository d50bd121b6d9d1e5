#ifndef BACKSORT_COMMON_ENGINE_METRICS_H_
#define BACKSORT_COMMON_ENGINE_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/chunk_cache.h"
#include "common/latency_histogram.h"
#include "common/metric_table.h"
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

// Stage rows of the engine's four latency summaries, in exposition order
// (docs/METRICS.md describes each stage). Each list expands into a stage
// set below and into its summary's HELP text.
#define BACKSORT_WRITE_STAGES(X) \
  X(batch_apply) X(queue_wait) X(sort) X(sort_job) X(encode) X(seal) X(flush)
#define BACKSORT_QUERY_STAGES(X) X(snapshot) X(prune) X(read) X(merge)
#define BACKSORT_AGG_STAGES(X) X(plan) X(stats) X(decode) X(merge)
#define BACKSORT_COMPACTION_STAGES(X) X(plan) X(merge) X(publish)

#define BACKSORT_STAGE_MEMBER(stage) H stage;
#define BACKSORT_STAGE_VISIT(stage) \
  f(#stage, [](auto& set) -> auto& { return set.stage; });
/// A stage set holds one H per stage: LatencyHistogram live (recorded
/// lock-free, in nanoseconds, by every shard and flush worker) and
/// HistogramSnapshot in a snapshot. ForEachStage(f) calls f(name, get) per
/// stage in row order; get(set) is that stage's member of either form.
#define BACKSORT_STAGE_SET(Name, STAGES)                             \
  template <class H>                                                \
  struct Name {                                                     \
    STAGES(BACKSORT_STAGE_MEMBER)                                   \
    template <class F>                                              \
    static void ForEachStage(F&& f) { STAGES(BACKSORT_STAGE_VISIT) } \
  };
BACKSORT_STAGE_SET(WriteStages, BACKSORT_WRITE_STAGES)
BACKSORT_STAGE_SET(QueryStages, BACKSORT_QUERY_STAGES)
BACKSORT_STAGE_SET(AggregateStages, BACKSORT_AGG_STAGES)
BACKSORT_STAGE_SET(CompactionStages, BACKSORT_COMPACTION_STAGES)
#undef BACKSORT_STAGE_SET
#undef BACKSORT_STAGE_VISIT
#undef BACKSORT_STAGE_MEMBER

/// Copies a live stage set into its snapshot form. Allocation-free.
template <template <class> class Set>
void LoadStages(const Set<LatencyHistogram>& live,
                Set<HistogramSnapshot>* snap) {
  Set<LatencyHistogram>::ForEachStage(
      [&](const char*, auto get) { get(*snap) = get(live).Snapshot(); });
}

/// The engine's metric families, one row each, in exposition order:
///   STAGES(member, StageSet, family, help_head, help_note): a summary with
///     one stage="..." sample set per stage, exported in seconds. Its HELP
///     is "<head> stage latency in seconds (stages: <the set's stages>
///     <note>); quantile=\"1\" is the observed max."
///   CELL(type, member, family, help, scale): a live cell recorded on the
///     hot path (EngineMetricCells) and its snapshot field of that name.
///   VALUE(type, path, family, help, scale): an EngineMetricsSnapshot value
///     kept outside the cells (chunk cache, file registry, shard totals).
///   SHARD(type, path, family, help, scale): one shard="N" sample per
///     shard, read from its ShardMetricsSnapshot.
/// A new metric is one row here plus the line that records it;
/// metrics_exposition_test checks the rows against docs/METRICS.md.
#define BACKSORT_ENGINE_METRICS(STAGES, CELL, VALUE, SHARD)                   \
  STAGES(stages, WriteStages, "backsort_stage_duration_seconds",              \
         "Write-path", "")                                                    \
  STAGES(query_stages, QueryStages, "backsort_query_stage_duration_seconds",  \
         "Read-path", "; only snapshot holds the shard lock")                 \
  STAGES(agg_stages, AggregateStages, "backsort_agg_stage_duration_seconds",  \
         "Aggregation-path", "; only plan holds the shard lock")              \
  CELL(Counter, agg_requests, "backsort_agg_requests_total",                  \
       "AggregateFast calls served since the engine opened.", 1)              \
  CELL(Counter, agg_stats_hits, "backsort_agg_stats_hits_total",              \
       "Chunks answered from footer statistics alone, no page read.", 1)      \
  CELL(Counter, agg_stats_misses, "backsort_agg_stats_misses_total",          \
       "Chunks aggregations merged page by page: partially covered, "         \
       "stat-less or overlapped by another source.", 1)                       \
  CELL(Counter, agg_pages_folded, "backsort_agg_pages_folded_total",          \
       "Sealed pages aggregations folded from page headers, undecoded.", 1)   \
  STAGES(compaction_stages, CompactionStages,                                 \
         "backsort_compaction_stage_duration_seconds", "Compaction",          \
         "; only publish holds shard locks")                                  \
  CELL(Counter, compaction_jobs, "backsort_engine_compaction_jobs_total",     \
       "Compaction merges completed (one output file swapped in each).", 1)   \
  CELL(Counter, compaction_failures,                                          \
       "backsort_engine_compaction_failures_total",                           \
       "Compaction merges that failed and left the registry unchanged.", 1)   \
  CELL(Counter, compaction_input_files,                                       \
       "backsort_engine_compaction_input_files_total",                        \
       "Sealed files consumed (merged away) by completed compactions.", 1)    \
  CELL(Counter, compaction_output_bytes,                                      \
       "backsort_engine_compaction_output_bytes_total",                       \
       "Bytes written into compaction output files (post-merge sizes).", 1)   \
  CELL(Counter, compaction_pages_copied,                                      \
       "backsort_engine_compaction_pages_copied_total",                       \
       "Input pages completed compactions copied under a rebuilt header.",   \
       1)                                                                     \
  CELL(Counter, compaction_pages_merged,                                      \
       "backsort_engine_compaction_pages_merged_total",                       \
       "Input pages completed compactions decoded into the last-write-wins "  \
       "merge.",                                                              \
       1)                                                                     \
  CELL(Counter, batch_writes, "backsort_engine_batch_writes_total",           \
       "Batched write calls applied via the group-commit ingest path.", 1)    \
  CELL(Counter, batch_points, "backsort_engine_batch_points_total",           \
       "Points ingested via the batched write path.", 1)                      \
  CELL(Counter, queries, "backsort_queries_total",                            \
       "Range queries served since the engine opened.", 1)                    \
  CELL(Counter, query_files_pruned, "backsort_query_files_pruned_total",      \
       "Sealed files skipped by footer time-range pruning, all queries.", 1)  \
  CELL(Counter, query_files_opened, "backsort_query_files_opened_total",      \
       "Sealed files that contributed a run to a query (disk or cache), all " \
       "queries.",                                                            \
       1)                                                                     \
  CELL(Counter, sealed_bytes_read, "backsort_engine_sealed_bytes_read_total", \
       "Bytes read from sealed chunks by queries and aggregations: spans of " \
       "overlapping pages plus page-directory derivations.",                  \
       1)                                                                     \
  CELL(Counter, sealed_pages_decoded,                                         \
       "backsort_engine_sealed_pages_decoded_total",                          \
       "Sealed pages decoded by queries and aggregations.", 1)                \
  VALUE(Counter, cache.hits, "backsort_chunk_cache_hits_total",               \
        "Page-directory lookups served from the chunk cache.", 1)             \
  VALUE(Counter, cache.misses, "backsort_chunk_cache_misses_total",           \
        "Page-directory lookups that read the chunk from disk.", 1)           \
  VALUE(Counter, cache.evictions, "backsort_chunk_cache_evictions_total",     \
        "Chunk-cache entries evicted to stay under capacity.", 1)             \
  VALUE(Counter, cache.footer_hits, "backsort_chunk_cache_footer_hits_total", \
        "Footer/index lookups served from the chunk cache.", 1)               \
  VALUE(Counter, cache.footer_misses,                                         \
        "backsort_chunk_cache_footer_misses_total",                           \
        "Footer/index lookups that read the file.", 1)                        \
  VALUE(Gauge, cache.bytes, "backsort_chunk_cache_bytes",                     \
        "Resident chunk-cache bytes (page directories + footers).", 1)        \
  VALUE(Gauge, cache.entries, "backsort_chunk_cache_entries",                 \
        "Resident chunk-cache entries (page directories + footers).", 1)      \
  VALUE(Gauge, cache.capacity_bytes, "backsort_chunk_cache_capacity_bytes",   \
        "Configured chunk-cache capacity in bytes (0 = cache disabled).", 1)  \
  VALUE(Gauge, shards.size(), "backsort_shard_count", "Engine shards.", 1)    \
  VALUE(Gauge, sealed_files, "backsort_sealed_files",                         \
        "Distinct sealed TsFiles across the engine.", 1)                      \
  VALUE(Gauge, total_working_points(), "backsort_working_points",             \
        "Points buffered in working memtables, all shards.", 1)               \
  VALUE(Gauge, total_working_bytes(), "backsort_working_bytes",               \
        "Approximate heap bytes of working memtables, all shards.", 1)        \
  VALUE(Gauge, total_queued_flushes(), "backsort_queued_flushes",             \
        "Sealed memtables waiting in flush queues, all shards.", 1)           \
  VALUE(Counter, total_completed_flushes(), "backsort_flushes_total",         \
        "Flushes completed since the engine opened.", 1)                      \
  SHARD(Gauge, working_points, "backsort_shard_working_points",               \
        "Points buffered in one shard's working memtables.", 1)               \
  SHARD(Gauge, working_bytes, "backsort_shard_working_bytes",                 \
        "Approximate heap bytes of one shard's working memtables.", 1)        \
  SHARD(Gauge, queued_flushes, "backsort_shard_queued_flushes",               \
        "Sealed memtables waiting in one shard's flush queue.", 1)            \
  SHARD(Gauge, flushing_tables, "backsort_shard_flushing_tables",             \
        "Sealed memtables of one shard not yet fully on disk.", 1)            \
  SHARD(Gauge, sealed_files, "backsort_shard_sealed_files",                   \
        "Sealed TsFiles one shard consults at query time.", 1)                \
  SHARD(Counter, completed_flushes, "backsort_shard_flushes_total",           \
        "Flushes one shard completed since the engine opened.", 1)            \
  SHARD(Gauge, flush.flush_ms.mean(), "backsort_shard_flush_mean_seconds",    \
        "Mean whole-pipeline flush time of one shard, seconds.", 1e-3)        \
  SHARD(Gauge, flush.sort_ms.mean(), "backsort_shard_sort_mean_seconds",      \
        "Mean in-flush sort time of one shard, seconds.", 1e-3)

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
  /// Shared chunk-cache counters (see ChunkCacheStats).
  ChunkCacheStats cache;

  /// One field per STAGES and CELL row of BACKSORT_ENGINE_METRICS, named
  /// like the row's member (its HELP text says what it counts).
#define BACKSORT_SNAPSHOT_STAGES(member, Set, ...) \
  Set<HistogramSnapshot> member;
  BACKSORT_ENGINE_METRICS(BACKSORT_SNAPSHOT_STAGES, BACKSORT_METRIC_FIELD,
                          BACKSORT_METRIC_SKIP, BACKSORT_METRIC_SKIP)
#undef BACKSORT_SNAPSHOT_STAGES

  /// Per-shard fields summed over shards.
  size_t total_queued_flushes() const {
    return SumShards(&ShardMetricsSnapshot::queued_flushes);
  }
  size_t total_working_points() const {
    return SumShards(&ShardMetricsSnapshot::working_points);
  }
  size_t total_completed_flushes() const {
    return SumShards(&ShardMetricsSnapshot::completed_flushes);
  }
  size_t total_working_bytes() const {
    return SumShards(&ShardMetricsSnapshot::working_bytes);
  }
  size_t SumShards(size_t ShardMetricsSnapshot::*field) const {
    size_t n = 0;
    for (const ShardMetricsSnapshot& s : shards) n += s.*field;
    return n;
  }
};

/// The engine's live metric cells, one per STAGES and CELL row, shared by
/// every shard and flush worker. Recording is lock-free (relaxed atomics:
/// exact totals, approximate ordering).
struct EngineMetricCells {
#define BACKSORT_LIVE_STAGES(member, Set, ...) \
  alignas(kCacheLineBytes) Set<LatencyHistogram> member;
  BACKSORT_ENGINE_METRICS(BACKSORT_LIVE_STAGES, BACKSORT_METRIC_LIVE,
                          BACKSORT_METRIC_SKIP, BACKSORT_METRIC_SKIP)
#undef BACKSORT_LIVE_STAGES

  /// Copies every cell into `*out`. Allocation-free: the benchmark's flush
  /// gate polls the engine snapshot every millisecond.
  void CopyTo(EngineMetricsSnapshot* out) const {
    EngineMetricsSnapshot& snap = *out;
#define BACKSORT_COPY_STAGES(member, ...) LoadStages(member, &snap.member);
    BACKSORT_ENGINE_METRICS(BACKSORT_COPY_STAGES, BACKSORT_METRIC_COPY,
                            BACKSORT_METRIC_SKIP, BACKSORT_METRIC_SKIP)
#undef BACKSORT_COPY_STAGES
  }
};

/// Every engine family, in exposition order.
#define BACKSORT_DECLARE_STAGES(member, Set, family, ...) \
  DeclaredFamily{family, MetricType::kSummary},
inline constexpr DeclaredFamily kEngineFamilies[] = {BACKSORT_ENGINE_METRICS(
    BACKSORT_DECLARE_STAGES, BACKSORT_METRIC_DECLARE, BACKSORT_METRIC_DECLARE,
    BACKSORT_METRIC_DECLARE)};
#undef BACKSORT_DECLARE_STAGES

}  // namespace backsort

#endif  // BACKSORT_COMMON_ENGINE_METRICS_H_
