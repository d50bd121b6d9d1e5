#include "engine/engine_shard.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>

#include "common/heap_trim.h"
#include "common/timer.h"
#include "engine/flush_pool.h"
#include "engine/lww_merge.h"
#include "engine/wal_tailer.h"
#include "sort/sortable.h"

namespace backsort {

namespace {

/// A shard's ship-log segment is rotated once it exceeds this many bytes.
/// Smaller segments bound replication replay and purge granularity;
/// larger ones reduce file churn.
constexpr size_t kShipSegmentBytes = 4u << 20;  // 4 MiB

/// Sorts `points`, one source's points in arrival order, by time with the
/// configured sorter, leaving equal timestamps in arrival order so the
/// last-write-wins dedup keeps the newest write. A sorter that keeps tie
/// order needs nothing more. After one that may not, an O(n) scan looks
/// for equal neighbours; only if it finds some does `refill(points)`
/// restore the arrival order (into the cleared buffer) for a re-sort with
/// stable Backward-Sort.
template <typename Refill>
void SortArrivals(const EngineOptions& options,
                  std::vector<TvPairDouble>* points, Refill&& refill) {
  VectorSortable<double> seq(*points);
  SortWith(options.sorter, seq, options.backward_options);
  if (KeepsTieOrder(options.sorter, options.backward_options) ||
      std::adjacent_find(points->begin(), points->end(),
                         [](const TvPairDouble& a, const TvPairDouble& b) {
                           return a.t == b.t;
                         }) == points->end()) {
    return;
  }
  points->clear();
  refill(points);
  BackwardSortOptions stable = options.backward_options;
  stable.block_sorter = BackwardSortOptions::BlockSorter::kStable;
  VectorSortable<double> again(*points);
  BackwardSort(again, stable);
}

/// One sealed chunk a read consults; the snapshot keeps the file alive.
struct SealedChunk {
  const SealedFileMeta* file;
  ChunkLocator locator;
};

/// The sources of one Query or AggregateFast, in last-write-wins priority
/// order: sealed chunks in list order, then the in-memory runs.
struct ReadSources {
  std::vector<SealedChunk> chunks;
  std::vector<std::vector<TvPairDouble>> runs;
  std::vector<std::optional<PageReader>> readers;  // parallel to chunks
  std::vector<MergeCursor> cursors;
};

/// Appends the chunks of `files` (in list order) whose footer says
/// `sensor` has points in [t_min, t_max] — the pinned file span first,
/// then the cached footer — and counts the other files in `*pruned`.
Status FindChunks(const std::vector<SealedFileRef>& files,
                  const std::string& sensor, Timestamp t_min,
                  Timestamp t_max, ReadSources* sources, uint64_t* pruned) {
  for (const SealedFileRef& file : files) {
    std::shared_ptr<const FooterIndex> footer;
    const ChunkLocator* locator = nullptr;
    if (file->SpanOverlaps(t_min, t_max)) {
      RETURN_NOT_OK(file->Footer(&footer));
      locator = footer->Find(sensor);
    }
    if (locator == nullptr || locator->min_t > locator->max_t ||
        locator->max_t < t_min || locator->min_t > t_max) {
      ++*pruned;
      continue;
    }
    sources->chunks.push_back({file.get(), *locator});
  }
  return Status::OK();
}

/// Opens a page reader over each chunk — with `prefetch`, loading its
/// overlapping pages with one pread — and builds the merge's cursors over
/// the chunks and the runs.
Status OpenCursors(const std::string& sensor, Timestamp t_min,
                   Timestamp t_max, bool prefetch, ReadSources* sources) {
  const std::vector<SealedChunk>& chunks = sources->chunks;
  sources->readers = std::vector<std::optional<PageReader>>(chunks.size());
  for (size_t i = 0; i < chunks.size(); ++i) {
    std::optional<PageReader>& reader = sources->readers[i];
    RETURN_NOT_OK(
        chunks[i].file->OpenChunk(sensor, chunks[i].locator, &reader));
    if (prefetch) RETURN_NOT_OK(reader->Prefetch(t_min, t_max));
    sources->cursors.emplace_back(&*reader, t_min, t_max);
  }
  for (const std::vector<TvPairDouble>& run : sources->runs) {
    sources->cursors.emplace_back(run);
  }
  return Status::OK();
}

/// Adds the readers' reads to the amplification counters.
void CountPageReads(EngineSharedState* shared, const ReadSources& sources) {
  for (const std::optional<PageReader>& reader : sources.readers) {
    if (!reader.has_value()) continue;
    shared->sealed_bytes_read.fetch_add(reader->bytes_read(),
                                        std::memory_order_relaxed);
    shared->sealed_pages_decoded.fetch_add(reader->pages_decoded(),
                                           std::memory_order_relaxed);
  }
}

}  // namespace

Status EngineSharedState::PublishFlushedFile(
    const std::string& tmp_path, bool sequence,
    std::shared_ptr<const FooterIndex> locators, SealedFileRef* out) {
  *out = nullptr;
  std::unique_lock<std::mutex> lock(files_mu);
  char name[48];
  std::snprintf(name, sizeof(name), "%s%08zu.bstf",
                sequence ? "seq-" : "unseq-", next_file_id.fetch_add(1));
  const std::string final_path = options.data_dir + "/" + name;
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    return Status::IOError("flush rename failed: " + tmp_path + " -> " +
                           final_path + ": " + ec.message());
  }
  SealedFileRef meta = std::make_shared<SealedFileMeta>(
      final_path, std::move(locators), chunk_cache.get());
  all_files.push_back(meta);
  file_count.store(all_files.size());
  *out = std::move(meta);
  return Status::OK();
}

EngineShard::EngineShard(size_t shard_id, size_t flush_threshold,
                         EngineSharedState* shared)
    : shard_id_(shard_id),
      flush_threshold_(flush_threshold),
      shared_(shared),
      working_seq_(std::make_unique<MemTable>()),
      working_unseq_(std::make_unique<MemTable>()) {}

EngineShard::~EngineShard() {
  // The facade stops the flush pool before destroying shards, so no worker
  // can still touch this shard here.
  if (wal_seq_ != nullptr) (void)wal_seq_->Close();
  if (wal_unseq_ != nullptr) (void)wal_unseq_->Close();
  if (ship_ != nullptr) (void)ship_->Close();
}

Status EngineShard::RotateWalLocked(bool sequence) {
  std::unique_ptr<WalWriter>& wal = sequence ? wal_seq_ : wal_unseq_;
  if (wal != nullptr) RETURN_NOT_OK(wal->Close());
  // Globally allocated id, so lexicographic name order is creation order
  // across shards; the shard suffix is for operators reading the data dir.
  char name[48];
  std::snprintf(name, sizeof(name), "wal-%08zu-s%02zu.log",
                shared_->next_wal_id.fetch_add(1), shard_id_);
  wal = std::make_unique<WalWriter>(shared_->options.data_dir + "/" + name,
                                    shared_->options.wal_fsync);
  return wal->Open();
}

Status EngineShard::RotateShipLocked() {
  if (ship_ != nullptr) RETURN_NOT_OK(ship_->Close());
  // The closed segment stays on disk: the replicator deletes it once its
  // follower has acknowledged past it (the engine never purges ship files).
  ship_ = std::make_unique<WalWriter>(
      shared_->options.data_dir + "/" +
          ShipSegmentName(shard_id_, ship_next_seq_++),
      shared_->options.wal_fsync);
  return ship_->Open();
}

Status EngineShard::ShipAppendLocked(const SensorSpanDouble* groups,
                                     size_t group_count) {
  if (ship_ == nullptr) RETURN_NOT_OK(RotateShipLocked());
  RETURN_NOT_OK(ship_->AppendBatch(groups, group_count));
  // Flush to the OS unconditionally (not only under sync_wal_every_write):
  // the tailer reads the file through the page cache, so an unflushed
  // record would be invisible to replication until some later flush.
  RETURN_NOT_OK(ship_->Sync());
  if (ship_->bytes() >= kShipSegmentBytes) {
    return RotateShipLocked();
  }
  return Status::OK();
}

Status EngineShard::WriteBatch(const SensorSpanDouble* groups,
                               size_t group_count, size_t* applied,
                               bool ship) {
  const EngineOptions& options = shared_->options;
  if (applied != nullptr) *applied = 0;
  size_t total = 0;
  for (size_t g = 0; g < group_count; ++g) total += groups[g].count;
  if (total == 0) return Status::OK();

  // Batch-apply latency: the whole group commit including shard-lock wait
  // (and inline flush stalls when async_flush is off) — what a client sees.
  WallTimer batch_timer;
  std::unique_lock<std::mutex> lock(mu_);

  // Separation policy: points at or below the sensor's flushed watermark
  // would rewrite history already on disk — they go to the unsequence
  // memtable instead of the sequence one.
  //
  // Partition every group against its sensor's watermark in one pass: one
  // watermark lookup per group instead of one per point. Groups that land
  // entirely on one side are passed through as views of the caller's
  // array — no copy; split groups are stably copy-partitioned into the
  // reused scratch vectors (reserved up front, so the spans into them
  // never dangle).
  part_seq_.clear();
  part_unseq_.clear();
  spans_seq_.clear();
  spans_unseq_.clear();
  ids_seq_.clear();
  ids_unseq_.clear();
  part_seq_.reserve(total);
  part_unseq_.reserve(total);
  for (size_t g = 0; g < group_count; ++g) {
    const SensorSpanDouble& group = groups[g];
    if (group.count == 0) continue;
    const SensorId sid = InternSensor(*group.sensor);
    size_t unseq_n = 0;
    if ((flags_[sid] & kHasWatermark) != 0) {
      const Timestamp wm = states_[sid].watermark;
      for (size_t i = 0; i < group.count; ++i) {
        if (group.points[i].t <= wm) ++unseq_n;
      }
    }
    if (unseq_n == 0) {
      spans_seq_.push_back(group);
      ids_seq_.push_back(sid);
    } else if (unseq_n == group.count) {
      spans_unseq_.push_back(group);
      ids_unseq_.push_back(sid);
    } else {
      const Timestamp wm = states_[sid].watermark;
      const TvPairDouble* seq_begin = part_seq_.data() + part_seq_.size();
      const TvPairDouble* unseq_begin =
          part_unseq_.data() + part_unseq_.size();
      for (size_t i = 0; i < group.count; ++i) {
        (group.points[i].t <= wm ? part_unseq_ : part_seq_)
            .push_back(group.points[i]);
      }
      spans_seq_.push_back({group.sensor, seq_begin, group.count - unseq_n});
      ids_seq_.push_back(sid);
      spans_unseq_.push_back({group.sensor, unseq_begin, unseq_n});
      ids_unseq_.push_back(sid);
    }
  }

  // Apply one target memtable's partition: one group-commit WAL record for
  // all its spans, then bulk memtable appends. A target is either fully
  // applied or untouched (the WAL record precedes any memtable write), so
  // `applied` stays an exact count across mid-batch failures.
  size_t applied_points = 0;
  auto apply_target = [&](bool sequence,
                          const std::vector<SensorSpanDouble>& spans,
                          const std::vector<SensorId>& ids) -> Status {
    if (spans.empty()) return Status::OK();
    if (options.enable_wal) {
      std::unique_ptr<WalWriter>& wal = sequence ? wal_seq_ : wal_unseq_;
      // Segments are created lazily on first append, so idle shards leave
      // no files behind.
      if (wal == nullptr) RETURN_NOT_OK(RotateWalLocked(sequence));
      RETURN_NOT_OK(wal->AppendBatch(spans.data(), spans.size()));
      // Replicated applies (ship == false) flush to the OS before
      // returning: the follower's ack advances the source's durable
      // frontier and lets it purge the acked ship segments, so a record
      // still sitting in this stdio buffer when the follower crashes
      // would be lost permanently — the source never re-ships it. Same
      // strength as the source side's ShipAppendLocked contract.
      if (options.sync_wal_every_write || !ship) RETURN_NOT_OK(wal->Sync());
    }
    if (ship && options.replication_log) {
      RETURN_NOT_OK(ShipAppendLocked(spans.data(), spans.size()));
    }
    MemTable* target = sequence ? working_seq_.get() : working_unseq_.get();
    size_t target_points = 0;
    for (size_t s = 0; s < spans.size(); ++s) {
      const SensorSpanDouble& span = spans[s];
      const SensorId sid = ids[s];
      target->WriteN(sid, interner_.NameOf(sid), span.points, span.count);
      // Last-cache update: arrival-order scan with the per-point >= tie
      // rule. The two partitions of one group can never tie against each
      // other (equal timestamps fall on the same side of the watermark),
      // so per-span scans reproduce the per-point result exactly.
      SensorState& state = states_[sid];
      bool have = (flags_[sid] & kHasLast) != 0;
      TvPairDouble best = have ? state.last : TvPairDouble{};
      for (size_t i = 0; i < span.count; ++i) {
        if (!have || span.points[i].t >= best.t) {
          best = span.points[i];
          have = true;
        }
      }
      state.last = best;
      flags_[sid] |= kHasLast;
      target_points += span.count;
    }
    approx_working_points_.fetch_add(target_points,
                                     std::memory_order_relaxed);
    applied_points += target_points;
    return Status::OK();
  };

  Status st = apply_target(true, spans_seq_, ids_seq_);
  if (st.ok()) st = apply_target(false, spans_unseq_, ids_unseq_);
  if (applied != nullptr) *applied = applied_points;
  if (!st.ok()) return st;
  shared_->batch_writes.fetch_add(1, std::memory_order_relaxed);
  shared_->batch_points.fetch_add(total, std::memory_order_relaxed);

  // Seal checks after the whole batch (see the header note on threshold
  // overshoot); both targets may have crossed their trigger.
  for (const bool sequence : {true, false}) {
    MemTable* target = sequence ? working_seq_.get() : working_unseq_.get();
    if (target->total_points() >= flush_threshold_) SealLocked(sequence);
  }
  if (!options.async_flush) {
    // The batch itself is staged and queryable; only the flush can fail.
    RETURN_NOT_OK(DrainQueueSyncLocked(lock));
  }
  shared_->stages.batch_apply.Record(
      static_cast<uint64_t>(batch_timer.ElapsedNanos()));
  return Status::OK();
}

Status EngineShard::DrainQueueSyncLocked(std::unique_lock<std::mutex>& lock) {
  while (!flush_queue_.empty()) {
    FlushJob job = std::move(flush_queue_.front());
    flush_queue_.pop_front();
    lock.unlock();
    const size_t freed_bytes =
        job.table != nullptr ? job.table->ApproxMemoryBytes() : 0;
    Status st = FlushTable(job);
    job.table.reset();
    MaybeTrimHeap(freed_bytes);
    lock.lock();
    if (!st.ok()) return st;
  }
  return Status::OK();
}

void EngineShard::SealLocked(bool sequence) {
  const EngineOptions& options = shared_->options;
  std::unique_ptr<MemTable>& working =
      sequence ? working_seq_ : working_unseq_;
  if (working->total_points() == 0) return;
  working->MarkFlushing();
  // Advance watermarks so later stragglers are separated.
  if (sequence) {
    for (const MemTable::Chunk* chunk : working->chunks()) {
      SensorState& state = states_[chunk->id];
      const Timestamp base =
          (flags_[chunk->id] & kHasWatermark) != 0 ? state.watermark
                                                   : Timestamp{0};
      state.watermark = std::max(base, chunk->list.max_time());
      flags_[chunk->id] |= kHasWatermark;
    }
  }
  // The sealed table's WAL segment rides along with the flush job and is
  // deleted once the TsFile is durable; the new working table lazily opens
  // a fresh segment on its first write.
  std::string wal_path;
  std::unique_ptr<WalWriter>& wal = sequence ? wal_seq_ : wal_unseq_;
  if (options.enable_wal && wal != nullptr) {
    wal_path = wal->path();
    (void)wal->Sync();
    (void)wal->Close();
    wal.reset();
  }
  std::shared_ptr<MemTable> sealed(working.release());
  working = std::make_unique<MemTable>();
  approx_working_points_.store(
      working_seq_->total_points() + working_unseq_->total_points(),
      std::memory_order_relaxed);
  flushing_.push_back(sealed);
  flush_queue_.push_back(FlushJob{sealed, sequence, wal_path,
                                  next_flush_seq_++, shared_->NowNs(),
                                  sealed->total_points()});
  if (options.async_flush && shared_->pool != nullptr) {
    shared_->pool->Submit(this);
  }
}

void EngineShard::SealBoth() {
  std::unique_lock<std::mutex> lock(mu_);
  SealLocked(true);
  SealLocked(false);
}

Status EngineShard::SealAndDrainSync() {
  std::unique_lock<std::mutex> lock(mu_);
  SealLocked(true);
  SealLocked(false);
  return DrainQueueSyncLocked(lock);
}

Status EngineShard::WaitFlushed() {
  std::unique_lock<std::mutex> lock(mu_);
  flush_done_cv_.wait(lock,
                      [this] { return flushes_attempted_ == next_flush_seq_; });
  Status st = std::move(flush_error_);
  flush_error_ = Status::OK();
  return st;
}

void EngineShard::ExecuteOneFlush() {
  FlushJob job;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (flush_queue_.empty()) return;  // already drained (e.g. by FlushAll)
    job = flush_queue_.front();
    flush_queue_.pop_front();
  }
  const size_t freed_bytes =
      job.table != nullptr ? job.table->ApproxMemoryBytes() : 0;
  Status st = FlushTable(job);
  job.table.reset();
  MaybeTrimHeap(freed_bytes);
  {
    // A failed flush is not retried: its table would publish after files
    // sealed later and outrank their newer points (last-write-wins
    // follows publication order). It stays in `flushing_` and its WAL
    // segment stays, so its points remain queryable and recoverable; the
    // next FlushAll reports the failure.
    std::lock_guard<std::mutex> lock(mu_);
    ++flushes_attempted_;
    if (!st.ok() && flush_error_.ok()) flush_error_ = st;
  }
  flush_done_cv_.notify_all();
}

Status EngineShard::FlushTable(const FlushJob& job) {
  const EngineOptions& options = shared_->options;
  const std::shared_ptr<MemTable>& table = job.table;
  WallTimer flush_timer;
  FlushTrace trace;
  trace.shard_id = shard_id_;
  trace.seq = job.seq;
  trace.sequence = job.sequence;
  trace.points = job.points;
  trace.seal_ns = job.seal_ns;
  trace.dequeue_ns = shared_->NowNs();
  double sort_ms = 0.0;

  // Write to a shard-local temp name; the final `seq-`/`unseq-` name is
  // allocated at publish time inside PublishFlushedFile, so lexicographic
  // file-name order matches publication (query-priority) order even when
  // flushes from different shards interleave. The `.bstf.tmp` suffix keeps
  // crash leftovers inside the Open() orphan sweep.
  char tmp_name[64];
  std::snprintf(tmp_name, sizeof(tmp_name), "flush-%zu-%zu.bstf.tmp",
                shard_id_, job.seq);
  const std::string tmp_path = options.data_dir + "/" + tmp_name;

  TsFileWriter writer(tmp_path);
  writer.set_footer_stats(options.footer_stats);
  Status write_status = Status::OK();
  {
    // `chunk->sensor` (an arena-backed view, valid for the table's
    // lifetime) serves as sort key and encoder name alike — no per-sensor
    // string copies on the seal path.
    std::vector<MemTable::Chunk*> chunks(table->chunks().begin(),
                                         table->chunks().end());
    // Chunks live in first-write order; the file format (and the sealed
    // byte-identity goldens) expect lexicographic sensor order, exactly
    // what the old std::map iteration produced.
    std::sort(chunks.begin(), chunks.end(),
              [](const MemTable::Chunk* a, const MemTable::Chunk* b) {
                return a->sensor < b->sensor;
              });

    // One sort+encode job per sensor, run in sensor order on this flush
    // worker; the first failure stops the file. The flat copy the sort
    // runs on and the encoder's columns are reused across sensors, grown
    // once to the largest chunk rather than reallocated per sensor.
    std::vector<TvPairDouble> points;
    std::vector<Timestamp> ts;
    std::vector<double> values;
    for (const MemTable::Chunk* chunk : chunks) {
      const DoubleTVList& list = chunk->list;
      WallTimer job_timer;
      int64_t sort_ns = 0;
      // Copy the sealed TVList out in arrival order and sort the flat copy
      // with the configured algorithm (skipped when appends arrived in
      // order — IoTDB checks the same flag). The TVList itself is never
      // written, so queries read the sealed table concurrently.
      auto copy_out = [&](std::vector<TvPairDouble>* out) {
        list.AppendRangeTo(list.min_time(), list.max_time(), out);
      };
      points.clear();
      copy_out(&points);
      if (!list.sorted()) {
        WallTimer sort_timer;
        SortArrivals(options, &points, copy_out);
        sort_ns = sort_timer.ElapsedNanos();
      }
      // Ties sit in arrival order, so the last of each timestamp is its
      // last write: keep only that one, as a query would (last-write-wins),
      // so page and footer statistics count each timestamp once.
      ts.resize(points.size());
      values.resize(points.size());
      size_t kept = 0;
      for (size_t k = 0; k < points.size(); ++k) {
        if (kept > 0 && ts[kept - 1] == points[k].t) {
          values[kept - 1] = points[k].v;
          continue;
        }
        ts[kept] = points[k].t;
        values[kept] = points[k].v;
        ++kept;
      }
      ts.resize(kept);
      values.resize(kept);
      TsFileWriter::EncodedChunk encoded;
      write_status = TsFileWriter::EncodeChunkF64(
          chunk->sensor, ts, values, Encoding::kTs2Diff, Encoding::kGorilla,
          options.points_per_page, &encoded);
      const int64_t job_ns = job_timer.ElapsedNanos();
      shared_->stages.sort_job.Record(static_cast<uint64_t>(job_ns));
      sort_ms += static_cast<double>(sort_ns) / 1e6;
      trace.sort_ns += sort_ns;
      trace.encode_ns += job_ns - sort_ns;
      if (write_status.ok()) {
        write_status = writer.AppendEncodedChunk(chunk->sensor, encoded);
      }
      if (!write_status.ok()) break;
    }
  }
  if (write_status.ok()) {
    WallTimer seal_timer;
    write_status = writer.Finish();
    if (write_status.ok() && options.wal_fsync) {
      // Durable mode: the WAL segment is deleted below, so the sealed file
      // must reach stable storage before its WAL coverage is discarded.
      write_status = SyncFileToDisk(tmp_path);
    }
    trace.fsync_ns = seal_timer.ElapsedNanos();
  }
  if (!write_status.ok()) {
    std::error_code ec;
    std::filesystem::remove(tmp_path, ec);
  }

  SealedFileRef meta;
  // Flatten the footer once, outside the publish critical section; it
  // becomes the file's (evictable) footer-cache entry, with only the O(1)
  // span summary pinned in the registry.
  std::shared_ptr<const FooterIndex> findex;
  if (write_status.ok()) {
    findex = std::make_shared<const FooterIndex>(writer.Locators());
  }
  {
    // Publish the file and retire the memtable atomically w.r.t. queries —
    // in seal order, so a straggler-heavy unsequence table sealed later
    // never ends up with a lower query priority than an earlier one.
    std::unique_lock<std::mutex> lock(mu_);
    publish_cv_.wait(lock, [&] { return published_seq_ == job.seq; });
    if (write_status.ok()) {
      // Allocate the final file id, rename, and append to the registry in
      // one files_mu critical section — the engine-wide list stays strictly
      // name-ordered within each seq/unseq class.
      write_status =
          shared_->PublishFlushedFile(tmp_path, job.sequence, findex, &meta);
    }
    if (write_status.ok()) {
      // (The SealedFileMeta constructor already published `findex` as the
      // file's warm footer-cache entry — first queries skip the index
      // read.)
      sealed_files_.push_back(meta);
      flushing_.erase(std::remove(flushing_.begin(), flushing_.end(), table),
                      flushing_.end());
      trace.publish_ns = shared_->NowNs();
      // Metrics ride in the publish critical section (mu_ before
      // metrics_mu_, same order as Snapshot) so an observer never sees a
      // published file without its completed-flush count.
      std::unique_lock<std::mutex> mlock(metrics_mu_);
      metrics_.flush_ms.Add(flush_timer.ElapsedMillis());
      metrics_.sort_ms.Add(sort_ms);
      ++completed_flushes_;
      // Trace ring: overwrite the oldest slot once the ring is full.
      if (trace_ring_.size() < kTraceRingCapacity) {
        trace_ring_.push_back(trace);
      } else {
        trace_ring_[trace_next_ % kTraceRingCapacity] = trace;
      }
      trace_next_ = (trace_next_ + 1) % kTraceRingCapacity;
    }
    // On failure the table stays in `flushing_` (its points remain
    // queryable and its WAL segment survives), but the publication turn
    // still advances so later flushes are not jammed.
    ++published_seq_;
  }
  publish_cv_.notify_all();
  if (!write_status.ok()) {
    // Publish-time failure (e.g. rename): drop the orphan temp file; a
    // pre-publish failure already removed it and this is a no-op.
    std::error_code ec;
    std::filesystem::remove(tmp_path, ec);
    return write_status;
  }

  // Lock-free stage recording, consistent with the trace by construction:
  // every histogram value is a duration derived from this trace's spans.
  WriteStages<LatencyHistogram>& h = shared_->stages;
  h.queue_wait.Record(static_cast<uint64_t>(
      std::max<int64_t>(trace.queue_wait_ns(), 0)));
  h.sort.Record(static_cast<uint64_t>(trace.sort_ns));
  h.encode.Record(static_cast<uint64_t>(trace.encode_ns));
  h.seal.Record(static_cast<uint64_t>(trace.fsync_ns));
  h.flush.Record(static_cast<uint64_t>(
      std::max<int64_t>(trace.pipeline_ns(), 0)));

  if (!job.wal_path.empty()) {
    if (options.wal_fsync) {
      // Make the rename itself durable before discarding the WAL segment —
      // otherwise a power cut could lose both the directory entry and the
      // log that could replay it. On failure keep the WAL (data stays
      // recoverable) and surface the error.
      Status dir_st = SyncDirToDisk(options.data_dir);
      if (!dir_st.ok()) return dir_st;
    }
    // The data is durable in the TsFile; its WAL coverage is obsolete.
    std::error_code ec;
    std::filesystem::remove(job.wal_path, ec);
  }
  return Status::OK();
}

std::vector<TvPairDouble> EngineShard::CollectFromMemTable(
    const MemTable& table, SensorId sid, Timestamp t_min, Timestamp t_max) {
  // A flushing table is immutable once SealLocked publishes it (the flush
  // worker sorts a copy), so it is read here without any lock.
  std::vector<TvPairDouble> snapshot;
  const DoubleTVList* list = table.GetChunk(sid);
  if (list == nullptr) return snapshot;
  // Snapshot matching points in arrival order, then sort the snapshot with
  // the configured algorithm — the query-time sorting cost the paper
  // measures, on the same disorder profile the TVList holds.
  auto copy_out = [&](std::vector<TvPairDouble>* out) {
    list->AppendRangeTo(t_min, t_max, out);
  };
  copy_out(&snapshot);
  if (!snapshot.empty() && !list->sorted()) {
    SortArrivals(shared_->options, &snapshot, copy_out);
  }
  return snapshot;
}

void EngineShard::TakeSnapshot(const std::string& sensor, Timestamp t_min,
                               Timestamp t_max, bool want_points,
                               ReadSnapshot* snap) {
  std::unique_lock<std::mutex> lock(mu_);
  snap->files = sealed_files_;
  snap->flushing = flushing_;
  // Interned id of the sensor, if this shard has ever seen it. An unknown
  // sensor keeps kInvalidSensorId — memtable/last-cache lookups all miss
  // (GetChunk bounds-checks), while sealed files are still consulted by
  // name, exactly as before.
  const SensorId sid = interner_.Lookup(sensor);
  snap->sid = sid;
  // Working tables only mutate under mu_ (flush workers touch sealed
  // tables exclusively), so reading them here needs no per-table lock.
  if (want_points) {
    // Copy matching points in arrival order; the caller sorts outside the
    // lock when the list was not already sorted, so the configured sorter
    // still sees the TVList's disorder profile.
    auto copy_points = [&](const MemTable& table,
                           std::vector<TvPairDouble>* dst, bool* sorted) {
      const DoubleTVList* list = table.GetChunk(sid);
      if (list == nullptr) return;
      list->AppendRangeTo(t_min, t_max, dst);
      *sorted = list->sorted();
    };
    copy_points(*working_unseq_, &snap->working_unseq,
                &snap->working_unseq_sorted);
    copy_points(*working_seq_, &snap->working_seq,
                &snap->working_seq_sorted);
  }
  if (sid != kInvalidSensorId && (flags_[sid] & kHasLast) != 0) {
    snap->have_last = true;
    snap->last = states_[sid].last;
  }
}

void EngineShard::CollectRuns(ReadSnapshot* snap, Timestamp t_min,
                              Timestamp t_max,
                              std::vector<std::vector<TvPairDouble>>* runs) {
  for (const auto& table : snap->flushing) {
    runs->push_back(CollectFromMemTable(*table, snap->sid, t_min, t_max));
  }
  const EngineOptions& options = shared_->options;
  auto finish_working = [&](std::vector<TvPairDouble>&& points, bool sorted) {
    if (!sorted && !points.empty()) {
      // The working table may have changed since the snapshot, so a sorter
      // that may reorder ties keeps its own arrival-order copy to re-sort.
      std::vector<TvPairDouble> arrival;
      if (!KeepsTieOrder(options.sorter, options.backward_options)) {
        arrival = points;
      }
      SortArrivals(options, &points, [&](std::vector<TvPairDouble>* out) {
        *out = std::move(arrival);
      });
    }
    runs->push_back(std::move(points));
  };
  finish_working(std::move(snap->working_unseq), snap->working_unseq_sorted);
  finish_working(std::move(snap->working_seq), snap->working_seq_sorted);
  std::erase_if(*runs, [](const std::vector<TvPairDouble>& run) {
    return run.empty();
  });
}

Status EngineShard::Query(const std::string& sensor, Timestamp t_min,
                          Timestamp t_max, std::vector<TvPairDouble>* out) {
  out->clear();
  EngineSharedState& shared = *shared_;
  shared.queries.fetch_add(1, std::memory_order_relaxed);
  QueryStages<LatencyHistogram>& qh = shared.query_stages;

  // Stage 1 — the only part under the shard lock: a cheap consistent
  // snapshot. (IoTDB's query "takes the lock and blocks the write
  // process"; here the blocked window shrinks to this copy.) File I/O,
  // decoding and merging all happen lock-free against the snapshot.
  WallTimer snapshot_timer;
  ReadSnapshot snap;
  TakeSnapshot(sensor, t_min, t_max, /*want_points=*/true, &snap);
  qh.snapshot.Record(static_cast<uint64_t>(snapshot_timer.ElapsedNanos()));

  if (shared.options.query_read_hook) shared.options.query_read_hook();

  // Stage 2 — footer-based file pruning: a file whose footer says the
  // sensor has no points in range is skipped without being opened. The
  // survivors keep list order, which is their last-write-wins priority.
  WallTimer prune_timer;
  ReadSources sources;
  uint64_t pruned = 0;
  Status st = FindChunks(snap.files, sensor, t_min, t_max, &sources, &pruned);
  if (pruned > 0) {
    shared.query_files_pruned.fetch_add(pruned, std::memory_order_relaxed);
  }
  qh.prune.Record(static_cast<uint64_t>(prune_timer.ElapsedNanos()));
  RETURN_NOT_OK(st);

  // Stage 3 — sort the in-memory runs; open each surviving chunk and load
  // its overlapping pages with one pread.
  WallTimer read_timer;
  CollectRuns(&snap, t_min, t_max, &sources.runs);
  st = OpenCursors(sensor, t_min, t_max, /*prefetch=*/true, &sources);
  shared.query_files_opened.fetch_add(sources.chunks.size(),
                                      std::memory_order_relaxed);
  qh.read.Record(static_cast<uint64_t>(read_timer.ElapsedNanos()));

  // Stage 4 — the last-write-wins merge, which decodes the pages.
  WallTimer merge_timer;
  if (st.ok()) st = MergePoints(sources.cursors, out);
  CountPageReads(&shared, sources);
  qh.merge.Record(static_cast<uint64_t>(merge_timer.ElapsedNanos()));
  // No partial state on error: a half-merged result must never
  // masquerade as the query answer.
  if (!st.ok()) out->clear();
  return st;
}

Status EngineShard::AggregateFast(const std::string& sensor, Timestamp t_min,
                                  Timestamp t_max,
                                  RangeStats* stats,
                                  bool* used_fast_path) {
  *stats = RangeStats{};
  if (used_fast_path != nullptr) *used_fast_path = false;
  EngineSharedState& shared = *shared_;
  shared.agg_requests.fetch_add(1, std::memory_order_relaxed);
  AggregateStages<LatencyHistogram>& ah = shared.agg_stages;

  // An empty time range has a well-defined answer (count == 0) and needs
  // no snapshot, no I/O, not even the shard lock.
  if (t_max < t_min) {
    if (used_fast_path != nullptr) *used_fast_path = true;
    return Status::OK();
  }

  // Stage 1 — plan: the snapshot, its chunks and in-memory runs in range,
  // and the chunks that answer from their footer: inside the range, with
  // usable statistics, and met by no other source's range, so nothing can
  // shadow any of their points.
  WallTimer plan_timer;
  ReadSnapshot snap;
  TakeSnapshot(sensor, t_min, t_max, /*want_points=*/true, &snap);
  ReadSources sources;
  uint64_t pruned = 0;
  Status st = FindChunks(snap.files, sensor, t_min, t_max, &sources, &pruned);
  CollectRuns(&snap, t_min, t_max, &sources.runs);
  const std::vector<SealedChunk>& chunks = sources.chunks;
  std::vector<SealedChunk> paged;  // the chunks left to the merge
  RangeStats footer_part;  // folded in file order: a deterministic sum
  for (size_t i = 0; st.ok() && i < chunks.size(); ++i) {
    const ChunkLocator& c = chunks[i].locator;
    auto meets = [&c](Timestamp lo, Timestamp hi) {
      return c.min_t <= hi && lo <= c.max_t;
    };
    bool alone = c.min_t >= t_min && c.max_t <= t_max && c.stats_usable();
    for (size_t j = 0; alone && j < chunks.size(); ++j) {
      const ChunkLocator& other = chunks[j].locator;
      alone = j == i || !meets(other.min_t, other.max_t);
    }
    for (const std::vector<TvPairDouble>& run : sources.runs) {
      alone = alone && !meets(run.front().t, run.back().t);
    }
    if (alone) {
      footer_part.Merge(RangeStats::OfChunk(c));
    } else {
      paged.push_back(chunks[i]);
    }
  }
  const uint64_t hits = chunks.size() - paged.size();
  sources.chunks = std::move(paged);
  ah.plan.Record(static_cast<uint64_t>(plan_timer.ElapsedNanos()));
  RETURN_NOT_OK(st);

  // Stage 2 — stats: the footer folds are pointer reads done while
  // planning; the stage records the (near-zero) bookkeeping cost so the
  // exposition shows where time does NOT go.
  WallTimer stats_timer;
  shared.agg_stats_hits.fetch_add(hits, std::memory_order_relaxed);
  ah.stats.Record(static_cast<uint64_t>(stats_timer.ElapsedNanos()));

  // Stage 3 — decode: open the other chunks' page readers. A page is read
  // only when the merge decodes it.
  WallTimer decode_timer;
  st = OpenCursors(sensor, t_min, t_max, /*prefetch=*/false, &sources);
  shared.agg_stats_misses.fetch_add(sources.chunks.size(),
                                    std::memory_order_relaxed);
  ah.decode.Record(static_cast<uint64_t>(decode_timer.ElapsedNanos()));

  // Stage 4 — merge: the last-write-wins merge into the stats sink, then
  // the footer folds.
  WallTimer merge_timer;
  RangeStats merged;
  FoldTally tally;
  if (st.ok()) st = MergeStats(sources.cursors, t_min, t_max, &merged, &tally);
  CountPageReads(&shared, sources);
  shared.agg_pages_folded.fetch_add(tally.pages_folded,
                                    std::memory_order_relaxed);
  footer_part.Merge(merged);
  if (st.ok()) *stats = footer_part;
  ah.merge.Record(static_cast<uint64_t>(merge_timer.ElapsedNanos()));
  if (st.ok() && used_fast_path != nullptr) *used_fast_path = !tally.merged;
  return st;
}

Status EngineShard::GetLatest(const std::string& sensor, TvPairDouble* out) {
  // Same snapshot helper as Query/AggregateFast (want_points = false skips
  // the working-table copies); the answer is the snapshot's last-cache
  // entry.
  ReadSnapshot snap;
  TakeSnapshot(sensor, std::numeric_limits<Timestamp>::min(),
               std::numeric_limits<Timestamp>::max(), /*want_points=*/false,
               &snap);
  if (!snap.have_last) {
    return Status::NotFound("no data for sensor: " + sensor);
  }
  *out = snap.last;
  return Status::OK();
}

FlushMetrics EngineShard::GetFlushMetrics() const {
  std::unique_lock<std::mutex> lock(metrics_mu_);
  return metrics_;
}

ShardMetricsSnapshot EngineShard::Snapshot() const {
  ShardMetricsSnapshot snap;
  snap.shard_id = shard_id_;
  {
    std::unique_lock<std::mutex> lock(mu_);
    snap.queued_flushes = flush_queue_.size();
    snap.flushing_tables = flushing_.size();
    snap.working_points =
        working_seq_->total_points() + working_unseq_->total_points();
    snap.working_bytes =
        working_seq_->ApproxMemoryBytes() + working_unseq_->ApproxMemoryBytes();
    snap.sealed_files = sealed_files_.size();
    snap.sensor_count = interner_.size();
    snap.sensor_state_bytes = interner_.MemoryBytes() +
                              states_.capacity() * sizeof(SensorState) +
                              flags_.capacity();
  }
  {
    std::unique_lock<std::mutex> lock(metrics_mu_);
    snap.completed_flushes = completed_flushes_;
    snap.flush = metrics_;
    // Unroll the trace ring into chronological (oldest-first) order.
    snap.recent_traces.reserve(trace_ring_.size());
    const size_t start =
        trace_ring_.size() < kTraceRingCapacity ? 0 : trace_next_;
    for (size_t i = 0; i < trace_ring_.size(); ++i) {
      snap.recent_traces.push_back(
          trace_ring_[(start + i) % trace_ring_.size()]);
    }
  }
  return snap;
}

void EngineShard::RecoverAdoptFile(const SealedFileRef& file) {
  if (std::find(sealed_files_.begin(), sealed_files_.end(), file) ==
      sealed_files_.end()) {
    sealed_files_.push_back(file);
  }
}

void EngineShard::RecoverWatermark(const std::string& sensor, Timestamp t) {
  const SensorId sid = InternSensor(sensor);
  SensorState& state = states_[sid];
  const Timestamp base =
      (flags_[sid] & kHasWatermark) != 0 ? state.watermark : Timestamp{0};
  state.watermark = std::max(base, t);
  flags_[sid] |= kHasWatermark;
}

void EngineShard::RecoverLastCache(const std::string& sensor, Timestamp t,
                                   double v) {
  const SensorId sid = InternSensor(sensor);
  SensorState& state = states_[sid];
  if ((flags_[sid] & kHasLast) == 0 || t >= state.last.t) {
    state.last = {t, v};
    flags_[sid] |= kHasLast;
  }
}

void EngineShard::RecoverReplayRecord(const WalRecord& r) {
  const SensorId sid = InternSensor(r.sensor);
  const bool sequence =
      (flags_[sid] & kHasWatermark) == 0 || r.t > states_[sid].watermark;
  MemTable* target = sequence ? working_seq_.get() : working_unseq_.get();
  target->Write(sid, interner_.NameOf(sid), r.t, r.v);
  approx_working_points_.fetch_add(1, std::memory_order_relaxed);
  RecoverLastCache(r.sensor, r.t, r.v);
}

Status EngineShard::RecoverRelog() {
  if (!shared_->options.enable_wal) return Status::OK();
  for (const auto* table : {working_seq_.get(), working_unseq_.get()}) {
    if (table->total_points() == 0) continue;
    const bool sequence = table == working_seq_.get();
    RETURN_NOT_OK(RotateWalLocked(sequence));
    WalWriter* wal = sequence ? wal_seq_.get() : wal_unseq_.get();
    // One group-commit batch record per sensor (not one per point): the
    // relogged segment is smaller and the replay path that reads it is the
    // same batch expansion recovery already exercises.
    std::vector<TvPairDouble> points;
    for (const MemTable::Chunk* chunk : table->chunks()) {
      const DoubleTVList& list = chunk->list;
      points.clear();
      list.AppendRangeTo(list.min_time(), list.max_time(), &points);
      const std::string name(chunk->sensor);
      const SensorSpanDouble span{&name, points.data(), points.size()};
      RETURN_NOT_OK(wal->AppendBatch(&span, 1));
      // Re-ship the recovered points too: any ship record the crash tore
      // off is covered again, and the follower's LWW apply absorbs the
      // duplicates this creates for records that did survive on disk.
      if (shared_->options.replication_log) {
        RETURN_NOT_OK(ShipAppendLocked(&span, 1));
      }
    }
    RETURN_NOT_OK(wal->Sync());
  }
  return Status::OK();
}

}  // namespace backsort
