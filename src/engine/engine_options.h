#ifndef BACKSORT_ENGINE_ENGINE_OPTIONS_H_
#define BACKSORT_ENGINE_ENGINE_OPTIONS_H_

#include <cstddef>
#include <functional>
#include <string>

#include "core/sorter_registry.h"

namespace backsort {

/// Configuration of the single-node storage engine. Every field has a
/// usable default except `data_dir`; operator-facing knobs are documented
/// in docs/OPERATIONS.md.
struct EngineOptions {
  /// Root directory for sealed TsFiles and WAL segments. Created by
  /// Open() if absent; a non-empty directory is recovered, not truncated.
  std::string data_dir;

  /// Which algorithm sorts memtable points at flush and query time — the
  /// variable under test in the paper's system experiments. Any sorter
  /// keeps last-write-wins exact: one that may reorder equal timestamps is
  /// followed by a tie check, and a tied buffer is re-sorted from arrival
  /// order with stable Backward-Sort (see SortArrivals in engine_shard.cc).
  SorterId sorter = SorterId::kTim;

  /// Tuning of Backward-Sort itself (block-size rule Θ/L0, strategy, block
  /// sorter); consulted when `sorter` selects it and for the tie re-sort.
  /// The engine defaults to the stable block sorter, so Backward needs no
  /// tie check; `BackwardSortOptions{}` keeps the paper's Quicksort blocks.
  BackwardSortOptions backward_options{
      .block_sorter = BackwardSortOptions::BlockSorter::kStable};

  /// Seal-and-flush once a shard's working memtable holds
  /// `memtable_flush_threshold / shard_count` points, so the engine-wide
  /// in-memory bound stays at this value regardless of shard count
  /// ("100,000 is the appropriate memory points size in the IoTDB").
  size_t memtable_flush_threshold = 100'000;

  /// Points per TsFile page — the granularity of page statistics and of
  /// the aggregation pushdown's decode skipping.
  size_t points_per_page = 1024;

  /// Whether flushed (and compacted) TsFiles carry per-chunk value
  /// statistics in their footers (the BSTF2 format). False writes the
  /// stat-less BSTF1 footer — the `--no-footer-stats` escape hatch; the
  /// engine then answers aggregations through the decoding tiers only.
  bool footer_stats = true;

  /// Number of independent engine shards; sensors are hashed onto shards,
  /// each with its own mutex, working memtables, WAL segments and sealed
  /// file list, so writers of different sensors do not contend.
  /// 0 = auto: $BACKSORT_SHARDS when set (the ci.sh test-matrix hook),
  /// else 1. With 1 shard the engine behaves exactly like the pre-sharding
  /// single-lock engine. A set variable that is not a plain decimal count
  /// makes Open() fail with InvalidArgument.
  size_t shard_count = 0;

  /// Workers in the shared flush pool draining sealed memtables from all
  /// shards, so sorts for different shards overlap. 0 = auto:
  /// $BACKSORT_FLUSH_WORKERS when set, else min(shard_count,
  /// hardware_concurrency). Ignored when async_flush is false. Malformed
  /// values of the variable fail Open() like $BACKSORT_SHARDS.
  size_t flush_workers = 0;

  /// Run flushes on background threads (IoTDB's flush is "asynchronously
  /// awaited"). Tests may turn this off for determinism.
  bool async_flush = true;

  /// Write-ahead logging: every ingested point is framed and CRC-protected
  /// in a per-memtable WAL segment before being buffered; segments are
  /// deleted once their memtable's TsFile is durable. Open() replays any
  /// leftover segments up to the first torn or damaged frame. With
  /// sync_wal_every_write off, frames wait in the WAL's stdio buffer (4 KiB
  /// with glibc) until it fills or the segment is synced, so a process
  /// crash loses every acknowledged write still in that buffer, not only
  /// the torn tail record (WalWriter in engine/wal.h).
  bool enable_wal = true;

  /// Force WAL buffers to the OS after every append. Durable but slow;
  /// benches leave it off (IoTDB likewise groups WAL syncs).
  bool sync_wal_every_write = false;

  /// Replication ship log: in addition to the main WAL, append every
  /// applied write to a per-shard `ship-sNN-XXXXXXXX.log` stream (same WAL
  /// v2 record format) and flush it to the OS before the write is
  /// acknowledged. The ship log is the replication source of truth: a
  /// cluster node's Replicator tails it with WalTailer
  /// (engine/wal_tailer.h) and ships the records to its follower; the
  /// engine itself never deletes ship segments — the replicator purges
  /// fully acknowledged closed segments. Costs one extra buffered write +
  /// fflush per ingest; leave off outside cluster mode.
  bool replication_log = false;

  /// Make every WAL Sync() also ::fsync the segment to the storage device,
  /// not just into the OS page cache. Off, a Sync survives a process crash
  /// but not a power cut; on, it survives both at a large latency cost
  /// (combine with sync_wal_every_write for per-write durability). Also
  /// extends the same power-cut guarantee to flush: a sealed file and its
  /// directory entry are fsync'd before the WAL segment covering it is
  /// deleted. Default off to keep benches honest; tradeoff in DESIGN.md's
  /// WAL section. Compaction fsyncs unconditionally — its inputs are
  /// deleted durable files, so there is no cheaper honest mode.
  bool wal_fsync = false;

  /// Built-in chunk-cache capacity.
  static constexpr size_t kDefaultChunkCacheBytes = 64u << 20;  // 64 MiB

  /// Byte capacity of the engine-wide chunk cache (page directories +
  /// parsed footers, shared by all shards; see common/chunk_cache.h).
  /// 0 disables the cache: footers stay pinned per file and every page
  /// read derives its chunk's page directory again. Sizing guidance in
  /// docs/OPERATIONS.md.
  size_t chunk_cache_bytes = kDefaultChunkCacheBytes;

  /// Test hook, invoked by Query after the snapshot is taken and the shard
  /// lock released, before any file I/O. Lets tests hold a query mid-read
  /// and assert that writers still make progress (the lock-free read path
  /// contract) and that the result reflects the snapshot, not later
  /// writes. Null in production.
  std::function<void()> query_read_hook;

  /// Run the tiered background compaction scheduler (engine/compaction.h):
  /// a thread that keeps the sealed-file count bounded by merging size
  /// tiers of the registry with the streaming loser-tree merge. Off (the
  /// default), files accumulate until an explicit Compact()/CompactStep().
  bool compaction_enabled = false;

  /// Maximum files merged by one compaction job (the k of the k-way
  /// merge; also the bound on open run cursors, hence on job memory).
  /// 0 = CompactionConfig::kDefaultMaxFanin (8); floor 2.
  size_t compaction_max_fanin = 0;

  /// How many same-tier files must accumulate (consecutively, in creation
  /// order) before the planner schedules a merge of that tier. 0 =
  /// CompactionConfig::kDefaultTriggerFiles (4); floor 2. Tiers are a
  /// fixed CompactionConfig::kDefaultTierRatio (4x) apart.
  size_t compaction_trigger_files = 0;

  /// Poll interval of the background scheduler, milliseconds. 0 =
  /// CompactionConfig::kDefaultCheckIntervalMs (250).
  size_t compaction_check_interval_ms = 0;
};

}  // namespace backsort

#endif  // BACKSORT_ENGINE_ENGINE_OPTIONS_H_
