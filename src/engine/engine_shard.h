#ifndef BACKSORT_ENGINE_ENGINE_SHARD_H_
#define BACKSORT_ENGINE_ENGINE_SHARD_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/chunk_cache.h"
#include "common/engine_metrics.h"
#include "common/latency_histogram.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/engine_options.h"
#include "engine/file_registry.h"
#include "engine/wal.h"
#include "memtable/memtable.h"
#include "memtable/sensor_interner.h"
#include "tsfile/tsfile.h"

namespace backsort {

class FlushPool;

/// State shared by all shards of one engine: the metric cells (the base,
/// recorded lock-free), the resolved options, the flush pool, globally
/// unique file/WAL id allocators (so names never collide across shards),
/// the shared chunk cache, and the engine-wide registry of distinct sealed
/// TsFiles in creation order (compaction input + file counting).
///
/// Lock hierarchy: facade → shard mu → files_mu. FlushTable publishes a
/// file under its shard's mu with files_mu nested; Compact acquires every
/// shard mu in index order before files_mu, so the nesting is acyclic.
/// ChunkCache shard mutexes are leaves taken with no engine lock held.
struct EngineSharedState : EngineMetricCells {
  EngineOptions options;
  FlushPool* pool = nullptr;

  /// Shared read cache (page directories + footers). Created by the facade
  /// constructor before any shard exists; never null once the engine is
  /// built. Declared before the file registries below so it outlives every
  /// SealedFileMeta (whose destructor invalidates its cache entries).
  std::unique_ptr<ChunkCache> chunk_cache;

  std::atomic<size_t> next_file_id{0};
  std::atomic<size_t> next_wal_id{0};
  std::atomic<size_t> file_count{0};

  /// Epoch of every FlushTrace timestamp: engine construction time on the
  /// steady clock.
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();

  /// Steady-clock nanoseconds since `epoch` — the trace timebase.
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
  }

  mutable std::mutex files_mu;
  /// Distinct sealed files, creation order. Holds the engine-wide refs;
  /// shards hold additional refs in their consult lists and queries take
  /// short-lived snapshot refs. Destroyed before `chunk_cache` (declared
  /// after it), so obsolete-file destructors can still invalidate.
  std::vector<SealedFileRef> all_files;

  /// Publishes a freshly flushed file: under files_mu, allocates the next
  /// file id, renames the writer's temporary to its final
  /// "<seq|unseq>-<id>.bstf" name, and appends the new meta to the
  /// engine list. Allocating the id inside the same critical section as
  /// the append keeps the registry list strictly name-ordered (per
  /// seq/unseq class) at all times — recovery rebuilds query priority by
  /// sorting names, so list order and name order must never diverge
  /// (naming the file when the flush STARTED could publish ids out of
  /// order under concurrent workers). Caller holds the publishing
  /// shard's mu (see lock hierarchy above). On error (rename failed) the
  /// registry is untouched and `*out` is null. `locators` is the
  /// flattened footer the meta will share with the cache (see
  /// FooterIndex).
  Status PublishFlushedFile(const std::string& tmp_path, bool sequence,
                            std::shared_ptr<const FooterIndex> locators,
                            SealedFileRef* out);
};

/// One sealed memtable queued for flush.
struct FlushJob {
  std::shared_ptr<MemTable> table;
  bool sequence = false;
  std::string wal_path;  // deleted once the TsFile is durable
  uint64_t seq = 0;      // per-shard seal order; publication replays it
  int64_t seal_ns = 0;   // seal time (trace timebase); queue-wait start
  size_t points = 0;     // points in the sealed table, for the trace
};

/// One shard of the storage engine: the former single-lock engine core.
/// Owns its mutex, working seq/unseq memtables, separation watermarks,
/// last cache, WAL segments and sealed-file list. Sensors are assigned to
/// shards by the facade (hash of sensor id), so a sensor's entire history
/// lives in one shard's files — queries touch exactly one shard.
class EngineShard {
 public:
  EngineShard(size_t shard_id, size_t flush_threshold,
              EngineSharedState* shared);
  ~EngineShard();

  EngineShard(const EngineShard&) = delete;
  EngineShard& operator=(const EngineShard&) = delete;

  size_t shard_id() const { return shard_id_; }

  /// The shard's only ingest path: applies every group's points under ONE
  /// shard-lock acquisition — each group is partitioned against its
  /// sensor's watermark in a single pass, each target memtable gets one
  /// group-commit WAL record (WalWriter::AppendBatch) and bulk appends
  /// (MemTable::WriteN), so the mutex/map/WAL-frame costs are paid once
  /// per call, not once per point. A single point is a one-point group.
  ///
  /// `applied` (optional) reports how many of the batch's points were
  /// durably staged (WAL record written, memtable updated) when the call
  /// returns — the partial-apply contract. Points apply target-by-target
  /// (sequence partition first, then unsequence), so on a mid-batch error
  /// the applied points are a whole target partition, not necessarily a
  /// prefix of the caller's arrival order; on success it equals the batch
  /// size. An error from the inline synchronous flush (async_flush off)
  /// reports all points applied: they are staged and queryable even though
  /// the flush itself failed.
  ///
  /// Seal checks run after the whole batch is applied, so a batch may
  /// overshoot `flush_threshold` by up to its own size (one-point calls
  /// seal exactly at it); the threshold is a trigger, not a cap.
  /// `ship` gates the replication ship log (EngineOptions::replication_log):
  /// local ingest ships, records applied FROM replication do not — a
  /// follower re-shipping its source's records would cycle them around the
  /// cluster ring forever. ship == false additionally forces the WAL
  /// append to the OS before returning (the replication ack that follows
  /// marks these records durable at the source, which then never
  /// re-ships them).
  Status WriteBatch(const SensorSpanDouble* groups, size_t group_count,
                    size_t* applied, bool ship = true);

  Status Query(const std::string& sensor, Timestamp t_min, Timestamp t_max,
               std::vector<TvPairDouble>* out);
  Status GetLatest(const std::string& sensor, TvPairDouble* out);
  Status AggregateFast(const std::string& sensor, Timestamp t_min,
                       Timestamp t_max, RangeStats* stats,
                       bool* used_fast_path);

  /// Seals both working memtables into the flush queue (async mode: jobs go
  /// to the pool; the caller then waits via WaitFlushed).
  void SealBoth();

  /// Sync-mode FlushAll step: seal both tables and drain the queue inline.
  Status SealAndDrainSync();

  /// Blocks until every flush sealed so far has been attempted, then
  /// returns the first failure since the last WaitFlushed (OK if none). A
  /// failed table stays queryable in `flushing_` with its WAL segment, and
  /// it is not flushed again (see ExecuteOneFlush). Async mode only.
  Status WaitFlushed();

  /// Pops and executes one job from this shard's flush queue; called by
  /// pool workers (one call per Submit ticket).
  void ExecuteOneFlush();

  FlushMetrics GetFlushMetrics() const;
  ShardMetricsSnapshot Snapshot() const;

  /// Lock-free estimate of points buffered in the working memtables, for
  /// the facade's cross-shard flush-trigger and metrics decisions.
  size_t ApproxWorkingPoints() const {
    return approx_working_points_.load(std::memory_order_relaxed);
  }

  // --- recovery hooks -------------------------------------------------------
  // Called by the facade during Open, strictly before any concurrency
  // exists (no pool workers, no clients), so they do not lock.

  /// Adds a sealed file to this shard's consult list (deduplicated by
  /// identity; one meta per file is shared across adopting shards).
  void RecoverAdoptFile(const SealedFileRef& file);
  /// Raises the separation watermark of `sensor` to at least `t`.
  void RecoverWatermark(const std::string& sensor, Timestamp t);
  /// Applies one recovered point to the last cache (file/WAL replay order;
  /// ties go to the later call, matching write recency).
  void RecoverLastCache(const std::string& sensor, Timestamp t, double v);
  /// Replays one WAL record into the working memtables via the separation
  /// policy, updating the last cache.
  void RecoverReplayRecord(const WalRecord& r);
  /// Re-logs the recovered in-memory points into fresh WAL segments and
  /// syncs them, so each non-empty working table is covered by exactly one
  /// live segment. With replication_log on, the same points are also
  /// re-shipped into a fresh ship segment — self-healing for ship records
  /// torn off by a crash (the follower's LWW apply makes the resulting
  /// duplicates harmless). No-op when WAL is disabled.
  Status RecoverRelog();
  /// Raises the ship-log segment allocator past segments found on disk, so
  /// a recovered shard appends after (never into) surviving segments.
  void RecoverShipSeq(size_t next_seq) {
    if (next_seq > ship_next_seq_) ship_next_seq_ = next_seq;
  }

  // --- compaction support ---------------------------------------------------

  std::mutex& mu() const { return mu_; }
  /// This shard's sealed-file consult list. Caller holds mu().
  std::vector<SealedFileRef>& sealed_files_locked() { return sealed_files_; }

 private:
  /// Everything one read needs, captured atomically under mu_ and consumed
  /// entirely outside it: sealed-file refs (priority = list order),
  /// flushing-table refs, filtered copies of the working memtables'
  /// matching points (arrival order; sorted outside the lock when needed),
  /// and the last-cache entry. Refs keep retired files readable and
  /// retired memtables alive for the snapshot's lifetime, so the view
  /// stays consistent however far writes, flushes or compaction progress
  /// meanwhile.
  struct ReadSnapshot {
    /// The queried sensor's dense id in this shard, resolved once under
    /// mu_ (kInvalidSensorId when the shard has never seen the name — its
    /// memtables and last cache then have nothing, though sealed files are
    /// still consulted by name).
    SensorId sid = kInvalidSensorId;
    std::vector<SealedFileRef> files;
    std::vector<std::shared_ptr<MemTable>> flushing;
    std::vector<TvPairDouble> working_unseq;
    bool working_unseq_sorted = true;
    std::vector<TvPairDouble> working_seq;
    bool working_seq_sorted = true;
    bool have_last = false;
    TvPairDouble last{};
  };

  /// Takes the consistent read snapshot under mu_ — the only part of a
  /// query that holds the shard lock. `want_points` = false skips copying
  /// working-memtable points (GetLatest).
  void TakeSnapshot(const std::string& sensor, Timestamp t_min,
                    Timestamp t_max, bool want_points, ReadSnapshot* snap);

  /// Sorted runs of the snapshot's in-memory points in [t_min, t_max],
  /// none empty, in last-write-wins priority order: flushing tables, then
  /// the working unsequence and sequence copies.
  void CollectRuns(ReadSnapshot* snap, Timestamp t_min, Timestamp t_max,
                   std::vector<std::vector<TvPairDouble>>* runs);

  /// Seals one working memtable into the flush queue. Caller holds mu_.
  void SealLocked(bool sequence);

  /// Synchronous-flush drain: pops and flushes queued jobs one by one,
  /// releasing `lock` (held on mu_) around each flush and trimming the
  /// heap after it. Stops at and returns the first flush error.
  Status DrainQueueSyncLocked(std::unique_lock<std::mutex>& lock);

  /// Sort + encode + write one sealed memtable to a TsFile, then — in seal
  /// order, under a single shard-lock critical section — publish the file
  /// and retire the table from `flushing_` so queries never see its points
  /// twice. Must be called without holding mu_.
  Status FlushTable(const FlushJob& job);

  /// Opens a fresh WAL segment for one working table (lazy: the first write
  /// after open/seal creates it). Caller holds mu_.
  Status RotateWalLocked(bool sequence);

  /// Opens the next ship-log segment (closing the current one, which the
  /// replicator purges once acknowledged). Caller holds mu_.
  Status RotateShipLocked();

  /// Appends one group-commit record to the ship log and flushes it to the
  /// OS, rotating the segment past its size bound afterwards. The flush
  /// precedes the memtable apply in every write path, so a record visible
  /// to clients is always recoverable by the tailer after a process crash
  /// (power-cut durability follows wal_fsync, like the main WAL). Caller
  /// holds mu_.
  Status ShipAppendLocked(const SensorSpanDouble* groups, size_t group_count);

  /// Collects [t_min, t_max] points of the sensor with dense id `sid` from
  /// a sealed (flushing) memtable into one sorted run (sorting with the
  /// configured algorithm, like IoTDB's query-time sort). A sealed table
  /// is immutable, so this takes no lock; called without mu_.
  std::vector<TvPairDouble> CollectFromMemTable(const MemTable& table,
                                                SensorId sid,
                                                Timestamp t_min,
                                                Timestamp t_max);

  /// Dense per-sensor shard state, indexed by SensorId: the separation
  /// watermark and the last-cache entry, replacing two string-keyed
  /// std::maps (two tree nodes + two key strings per sensor) with 24
  /// contiguous bytes plus one presence byte in flags_. Guarded by mu_.
  struct SensorState {
    Timestamp watermark = 0;
    TvPairDouble last{};
  };
  static constexpr uint8_t kHasWatermark = 1;  ///< flags_ bit: watermark set
  static constexpr uint8_t kHasLast = 2;       ///< flags_ bit: last set

  /// Interns `name`, growing states_/flags_ so every valid SensorId
  /// indexes them safely. Caller holds mu_ (or is in single-threaded
  /// recovery).
  SensorId InternSensor(std::string_view name) {
    const SensorId id = interner_.Intern(name);
    if (id >= states_.size()) {
      states_.resize(id + 1);
      flags_.resize(id + 1, 0);
    }
    return id;
  }

  const size_t shard_id_;
  const size_t flush_threshold_;
  EngineSharedState* const shared_;

  /// Sensor-name interner: the only owner of name bytes past the wire
  /// boundary. Declared before the memtables/flush structures so it is
  /// destroyed after them — chunks hold views into it.
  SensorInterner interner_;

  mutable std::mutex mu_;
  std::unique_ptr<MemTable> working_seq_;
  std::unique_ptr<MemTable> working_unseq_;
  /// Per-sensor watermark + last cache (see SensorState), dense by
  /// SensorId; presence bits in flags_. Rebuilt from files + WAL on
  /// recovery (ids are reassigned freely — they never persist).
  std::vector<SensorState> states_;
  std::vector<uint8_t> flags_;
  /// Tables sealed but not yet fully on disk; still visible to queries.
  std::vector<std::shared_ptr<MemTable>> flushing_;

  /// WriteBatch partition scratch, reused across batches so the steady
  /// state allocates nothing. Guarded by mu_ like the structures above.
  /// The span vectors hold non-owning views into either the caller's
  /// arrays (single-target groups) or the part vectors (split groups);
  /// part vectors are reserved to the batch size up front so those views
  /// stay stable.
  std::vector<TvPairDouble> part_seq_;
  std::vector<TvPairDouble> part_unseq_;
  std::vector<SensorSpanDouble> spans_seq_;
  std::vector<SensorSpanDouble> spans_unseq_;
  /// Dense ids parallel to spans_seq_/spans_unseq_, resolved once per
  /// group in the partition pass so apply never re-hashes a name.
  std::vector<SensorId> ids_seq_;
  std::vector<SensorId> ids_unseq_;

  std::deque<FlushJob> flush_queue_;
  /// Pool flushes finished, failed ones included (ExecuteOneFlush), and the
  /// first failure among them that no WaitFlushed has returned yet.
  uint64_t flushes_attempted_ = 0;
  Status flush_error_;
  std::condition_variable flush_done_cv_;

  /// Publication sequencing: jobs are numbered at seal; FlushTable waits
  /// its turn before publishing, so same-shard files enter the consult
  /// list in seal order even with concurrent pool workers (last-write-wins
  /// priority between unsequence files depends on it).
  uint64_t next_flush_seq_ = 0;
  uint64_t published_seq_ = 0;
  std::condition_variable publish_cv_;

  std::unique_ptr<WalWriter> wal_seq_;
  std::unique_ptr<WalWriter> wal_unseq_;

  /// Replication ship log (EngineOptions::replication_log): one totally
  /// ordered stream per shard, separate from the two concurrently open
  /// main-WAL segments above, whose seq/unseq interleaving no
  /// (segment, offset) cursor could order. Lazy like the WAL writers.
  std::unique_ptr<WalWriter> ship_;
  size_t ship_next_seq_ = 0;

  mutable std::mutex metrics_mu_;
  FlushMetrics metrics_;
  size_t completed_flushes_ = 0;
  /// Ring buffer of the most recent completed flush traces (capacity
  /// kTraceRingCapacity); trace_next_ is the slot the next trace lands in.
  static constexpr size_t kTraceRingCapacity = 32;
  std::vector<FlushTrace> trace_ring_;
  size_t trace_next_ = 0;

  std::vector<SealedFileRef> sealed_files_;
  std::atomic<size_t> approx_working_points_{0};
};

}  // namespace backsort

#endif  // BACKSORT_ENGINE_ENGINE_SHARD_H_
