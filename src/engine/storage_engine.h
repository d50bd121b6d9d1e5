#ifndef BACKSORT_ENGINE_STORAGE_ENGINE_H_
#define BACKSORT_ENGINE_STORAGE_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/engine_metrics.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/compaction.h"
#include "engine/engine_options.h"
#include "engine/engine_shard.h"
#include "engine/flush_pool.h"
#include "tsfile/tsfile.h"

namespace backsort {

/// A miniature Apache-IoTDB-shaped storage engine, sharded for write
/// concurrency: sensor ids are hashed onto `EngineOptions::shard_count`
/// EngineShards, each the former single-lock engine core (own mutex,
/// working/flushing memtables of TVLists, sequence/unsequence **separation
/// policy**, WAL segments, last cache, sealed-file list). A shared flush
/// pool (`EngineOptions::flush_workers`) drains sealed memtables from all
/// shards, so the pluggable sort + encode + TsFile write of different
/// shards overlaps. Queries take only their sensor's shard lock — writers
/// of other shards proceed concurrently; with shard_count = 1 and one
/// flush worker the engine behaves exactly like the pre-sharding engine.
class StorageEngine {
 public:
  /// Stores the options and builds the shards; no I/O happens until
  /// Open(). The construction instant is the epoch of all flush-trace
  /// timestamps (see FlushTrace in common/engine_metrics.h).
  explicit StorageEngine(EngineOptions options);

  /// Drains the flush pool (pending sealed memtables reach disk) and
  /// stops its workers before tearing down the shards.
  ~StorageEngine();

  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  /// Creates the data directory, recovers sealed TsFiles and WAL segments
  /// from a previous incarnation (routing each sensor's state to its
  /// current shard, so the shard count may change between runs), and
  /// starts the flush pool. Fails with InvalidArgument, before any I/O,
  /// when $BACKSORT_SHARDS or $BACKSORT_FLUSH_WORKERS was set to something
  /// other than a decimal count.
  Status Open();

  /// Ingests one point (arrival order = call order) as a one-point group
  /// commit: a thin wrapper over the same shard WriteBatch every other
  /// ingest entry uses, with no heap allocation of its own. There is one
  /// ingest path; batching (WriteBatch/WriteMulti) only amortizes its
  /// per-call lock and WAL-frame cost over more points.
  Status Write(const std::string& sensor, Timestamp t, double v);

  /// Ingests a batch of one sensor's points (the benchmark writes batches
  /// of 500): one shard-lock acquisition, one watermark partition pass,
  /// one group-commit WAL record per target memtable and bulk TVList
  /// appends — instead of the per-call costs N times over.
  ///
  /// `applied` (optional) reports how many points were durably staged when
  /// the call returns: the batch size on success, an exact count on a
  /// mid-batch error (see EngineShard::WriteBatch for the target-by-target
  /// partial-apply contract).
  Status WriteBatch(const std::string& sensor,
                    const std::vector<TvPairDouble>& points,
                    size_t* applied = nullptr);

  /// Multi-sensor batched ingest: groups the spans by shard and dispatches
  /// ONE batched call per shard, so a batch spanning S sensors on one
  /// shard still pays one lock/WAL-record round instead of S. Shards apply
  /// in index order; `applied` accumulates exact per-shard counts and the
  /// first shard error stops the dispatch (later shards' points are not
  /// applied). The spans are non-owning: their sensor names and point
  /// arrays must stay alive for the duration of the call. The network
  /// server feeds this from its streaming WriteBatch decode
  /// (net/protocol.h WriteBatchView), so wire payload bytes flow into the
  /// shard group commit without an owning intermediate copy.
  Status WriteMulti(const SensorSpanDouble* spans, size_t span_count,
                    size_t* applied = nullptr);

  /// WriteMulti for records arriving FROM replication: identical apply
  /// semantics (WAL, memtables, last cache, LWW on read) except that the
  /// points are NOT re-appended to this engine's replication ship log —
  /// a follower re-shipping its source's records would cycle them around
  /// the cluster ring forever. Local ingest must use WriteMulti.
  /// Durability is strengthened to match the replication ack contract:
  /// the WAL records are flushed to the OS before this returns (the
  /// source treats the acked cursor as durable and purges its acked ship
  /// segments, so a buffered-only record lost to a follower crash would
  /// never be re-shipped).
  Status WriteReplicated(const SensorSpanDouble* spans, size_t span_count,
                         size_t* applied = nullptr);

  /// Time-range query [t_min, t_max]: sorted, may contain points from the
  /// working memtable, in-flight flushing memtables, and sealed files.
  /// Holds the shard lock only long enough to take a consistent snapshot
  /// (sealed-file refs + memtable copies); all file I/O, cache lookups,
  /// decoding and merging run lock-free, so same-shard writers progress
  /// while a query reads. Files are pruned by footer time range before
  /// being opened; a surviving file's chunk is read page by page through
  /// its page directory (cached in the shared ChunkCache), so only the
  /// pages overlapping the range are read and decoded, and one
  /// last-write-wins merge (engine/lww_merge.h) combines them with the
  /// memtables' points.
  Status Query(const std::string& sensor, Timestamp t_min, Timestamp t_max,
               std::vector<TvPairDouble>* out);

  /// O(1) latest-point lookup ("SELECT last(*)"), served from the last
  /// cache IoTDB also maintains: the point with the largest timestamp ever
  /// written to the sensor (ties: the most recent write). NotFound when
  /// the sensor has no data.
  Status GetLatest(const std::string& sensor, TvPairDouble* out);

  /// Aggregation with statistics pushdown (count/sum/min/max/first/last
  /// over [t_min, t_max]): a chunk inside the range that no other source
  /// overlaps answers from its footer, and Query's merge folds every page
  /// no other source's point falls inside from its page header
  /// (docs/DESIGN.md §16). `used_fast_path` reports true when no point was
  /// merged with another source's; results are identical either way (sums
  /// may differ in floating-point rounding). An empty range returns
  /// count == 0 without scanning. NaN values are excluded from
  /// min/max/sum but counted and eligible as first/last.
  Status AggregateFast(const std::string& sensor, Timestamp t_min,
                       Timestamp t_max, RangeStats* stats,
                       bool* used_fast_path = nullptr);

  /// Seals every shard's working memtables (if non-empty) and waits until
  /// every queued flush has been attempted. Sealing all shards first lets
  /// their flushes overlap in the pool. Returns the first flush failure
  /// since the last FlushAll; a table that failed stays queryable in
  /// memory and in its WAL segment, and is not flushed again.
  Status FlushAll();

  /// Merged flush metrics across all shards (thread-safe).
  FlushMetrics GetFlushMetrics() const;

  /// Engine-wide metrics with the per-shard breakdown (queue depths, flush
  /// counts, working set sizes), every recorded cell of
  /// BACKSORT_ENGINE_METRICS, and each shard's recent flush traces. Render
  /// with ExportEngineMetrics (common/metrics_registry.h); metric reference
  /// in docs/METRICS.md.
  EngineMetricsSnapshot GetMetricsSnapshot() const;

  /// Distinct sealed TsFiles across the whole engine.
  size_t sealed_file_count() const { return shared_.file_count.load(); }

  /// Point-in-time counters of the shared chunk cache (also embedded in
  /// GetMetricsSnapshot; this is the cheap standalone probe tests and
  /// tools use).
  ChunkCacheStats GetChunkCacheStats() const;

  /// Resolved chunk-cache capacity in bytes (0 = disabled).
  size_t chunk_cache_capacity() const {
    return shared_.chunk_cache->capacity_bytes();
  }

  /// The resolved options (data_dir, replication_log, ...), read-only —
  /// the replication tailer and server replication endpoint key off
  /// data_dir and the ship-log settings.
  const EngineOptions& options() const { return shared_.options; }

  /// Resolved shard / flush-worker counts (after env and auto defaults).
  size_t shard_count() const { return shards_.size(); }
  size_t flush_worker_count() const { return flush_workers_; }

  /// Full compaction to a fixpoint, level by level: merges consecutive
  /// max-fan-in windows across the sealed-file list (streaming, bounded
  /// memory; see engine/compaction.h), each output at its window's
  /// position, then starts the next level, until the files present when
  /// the call began are one sequence file. Files flushed while it runs are
  /// left alone. Blocks writes for each window's registry swap only;
  /// serialized against CompactStep and the background scheduler.
  Status Compact();

  /// One tiered compaction step: plans over the current registry
  /// (CompactionPlanner::PlanTiered) and, when some size tier has
  /// accumulated enough consecutive files, merges one bounded-fan-in
  /// window. `performed` (optional) reports whether a merge ran. The
  /// background scheduler calls this in a loop; tools and tests can too.
  Status CompactStep(bool* performed = nullptr);

  /// Resolved compaction tuning (options over CompactionConfig defaults).
  const CompactionConfig& compaction_config() const {
    return compaction_config_;
  }
  /// Whether the background compaction scheduler runs.
  bool compaction_enabled() const { return compaction_enabled_; }

  /// Planner's stable-file bound for the data currently on disk: the
  /// sealed-file count a converged engine may hold before compaction
  /// triggers again. The soak bench and ci.sh gate against this.
  size_t CompactionFileBound() const;

 private:
  size_t ShardFor(const std::string& sensor) const;

  /// Shared body of WriteMulti / WriteReplicated; `ship` gates the
  /// replication ship log (see WriteReplicated).
  Status WriteMultiImpl(const SensorSpanDouble* spans, size_t span_count,
                        size_t* applied, bool ship);

  /// Snapshots the creation-order file list (under files_mu) and the
  /// inputs' on-disk byte sizes (outside it).
  void SnapshotFiles(std::vector<SealedFileRef>* files,
                     std::vector<uint64_t>* sizes) const;

  /// Runs one planned merge end to end: CompactionJob + registry swap +
  /// metrics. Caller holds compact_mu_.
  Status RunCompactionPlan(const CompactionPlan& plan, bool* performed);

  /// Replaces the plan's window with the merged output at the same list
  /// position, in every shard's consult list and the engine list, under
  /// all shard locks (index order) then files_mu; marks the inputs
  /// obsolete after the locks drop.
  Status ApplyCompactionSwap(const CompactionPlan& plan,
                             const SealedFileRef& out_meta);

  /// Replays leftover TsFiles and WAL segments from `data_dir` into the
  /// shards. Runs single-threaded during Open, before the pool starts.
  Status RecoverAll();

  EngineSharedState shared_;
  /// First malformed environment hook met at construction; Open() fails
  /// with it before touching the data directory.
  Status env_status_;
  size_t flush_workers_ = 1;
  std::vector<std::unique_ptr<EngineShard>> shards_;
  FlushPool pool_;
  bool pool_started_ = false;

  /// Resolved at construction from the options.
  CompactionConfig compaction_config_;
  bool compaction_enabled_ = false;
  /// Serializes whole compaction cycles (scheduler, CompactStep,
  /// Compact): plans stay valid until their swap because only appends
  /// can happen concurrently. Ordered before any shard mu.
  std::mutex compact_mu_;
  /// Started by Open when compaction_enabled_; stopped in the destructor
  /// before the flush pool (a draining job may still yield to it).
  std::unique_ptr<CompactionScheduler> compaction_scheduler_;
};

}  // namespace backsort

#endif  // BACKSORT_ENGINE_STORAGE_ENGINE_H_
