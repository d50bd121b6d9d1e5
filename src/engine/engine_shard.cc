#include "engine/engine_shard.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/timer.h"
#include "engine/flush_pool.h"
#include "engine/merge.h"
#include "engine/wal_tailer.h"
#include "sort/sortable.h"

namespace backsort {

namespace {

/// Returns freed heap pages to the OS after a large sealed memtable dies.
/// The memtable's point storage is arena blocks (munmapped wholesale), but
/// the seal pipeline's per-sensor transients — encoded chunk bodies,
/// chain-pointer vectors, writer index entries — land in glibc's bins,
/// where they would stay resident forever at high cardinality (~hundreds
/// of bytes per idle sensor). malloc_trim(0) madvises whole free pages
/// away, costing ~a millisecond against a multi-hundred-millisecond seal;
/// the 4 MiB floor keeps small frequent flushes (deep per-sensor backfill)
/// off that cost entirely.
void MaybeTrimHeap(size_t freed_bytes) {
#if defined(__GLIBC__)
  constexpr size_t kTrimFloorBytes = 4u << 20;
  if (freed_bytes >= kTrimFloorBytes) ::malloc_trim(0);
#else
  (void)freed_bytes;
#endif
}

/// Adds one chunk read to the amplification counters.
void CountPageReads(EngineSharedState* shared, const PageReader& reader) {
  shared->sealed_bytes_read.fetch_add(reader.bytes_read(),
                                      std::memory_order_relaxed);
  shared->sealed_pages_decoded.fetch_add(reader.pages_decoded(),
                                         std::memory_order_relaxed);
}

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
  if (ship_->bytes() >= shared_->options.ship_segment_bytes) {
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
  shared_->histograms.batch_apply.Record(
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

void EngineShard::WaitFlushed() {
  std::unique_lock<std::mutex> lock(mu_);
  flush_done_cv_.wait(lock, [this] {
    return flush_queue_.empty() && flushing_.empty();
  });
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
  (void)st;  // IO failures surface via FlushAll in tests; keep draining.
  job.table.reset();
  MaybeTrimHeap(freed_bytes);
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
    // One sort+encode job per sensor, in map (sensor-name) order. Encoded
    // chunk bodies are position-independent, so jobs run on any worker in
    // any order; the coordinator appends results in job order below,
    // making the sealed file byte-identical to the serial loop at every
    // parallelism setting.
    struct JobResult {
      TsFileWriter::EncodedChunk chunk;
      Status status;
      int64_t sort_ns = 0;
      int64_t encode_ns = 0;
    };
    // `chunk->sensor` (an arena-backed view, valid for the table's
    // lifetime) serves as sort key and encoder name alike — no per-sensor
    // string copies on the seal path.
    std::vector<MemTable::Chunk*> jobs(table->chunks().begin(),
                                       table->chunks().end());
    // Chunks live in first-write order; the file format (and the sealed
    // byte-identity goldens) expect lexicographic sensor order, exactly
    // what the old std::map iteration produced.
    std::sort(jobs.begin(), jobs.end(),
              [](const MemTable::Chunk* a, const MemTable::Chunk* b) {
                return a->sensor < b->sensor;
              });
    std::vector<JobResult> results(jobs.size());

    // Per-worker reusable scratch: the flat copy the sort runs on and the
    // encoder's columns, grown once to the largest chunk a worker sees,
    // not reallocated per sensor.
    struct Scratch {
      std::vector<TvPairDouble> points;
      std::vector<Timestamp> ts;
      std::vector<double> values;
    };
    auto run_job = [&](size_t i, Scratch& scratch) {
      const DoubleTVList& list = jobs[i]->list;
      JobResult& res = results[i];
      WallTimer job_timer;
      // Copy the sealed TVList out in arrival order and sort the flat copy
      // with the configured algorithm (skipped when appends arrived in
      // order — IoTDB checks the same flag). The TVList itself is never
      // written, so queries read the sealed table concurrently.
      auto copy_out = [&](std::vector<TvPairDouble>* out) {
        list.AppendRangeTo(list.min_time(), list.max_time(), out);
      };
      scratch.points.clear();
      copy_out(&scratch.points);
      if (!list.sorted()) {
        WallTimer sort_timer;
        SortArrivals(options, &scratch.points, copy_out);
        res.sort_ns = sort_timer.ElapsedNanos();
      }
      scratch.ts.resize(scratch.points.size());
      scratch.values.resize(scratch.points.size());
      for (size_t k = 0; k < scratch.points.size(); ++k) {
        scratch.ts[k] = scratch.points[k].t;
        scratch.values[k] = scratch.points[k].v;
      }
      res.status = TsFileWriter::EncodeChunkF64(
          jobs[i]->sensor, scratch.ts, scratch.values, Encoding::kTs2Diff,
          Encoding::kGorilla, options.points_per_page, &res.chunk);
      const int64_t job_ns = job_timer.ElapsedNanos();
      res.encode_ns = job_ns - res.sort_ns;
      shared_->histograms.sort_job.Record(static_cast<uint64_t>(job_ns));
    };

    const size_t parallelism = std::min(
        std::max<size_t>(options.flush_parallelism, 1), jobs.size());
    if (parallelism <= 1) {
      // Inline on the flush worker — the pre-parallel path.
      Scratch scratch;
      for (size_t i = 0; i < jobs.size(); ++i) run_job(i, scratch);
    } else {
      std::atomic<size_t> next{0};
      std::vector<std::thread> task_group;
      task_group.reserve(parallelism);
      for (size_t w = 0; w < parallelism; ++w) {
        task_group.emplace_back([&] {
          Scratch scratch;
          for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
               i < jobs.size();
               i = next.fetch_add(1, std::memory_order_relaxed)) {
            run_job(i, scratch);
          }
        });
      }
      for (auto& worker : task_group) worker.join();
    }

    // Deterministic assembly in job (sensor) order; first failure wins,
    // like the serial loop.
    for (size_t i = 0; i < results.size(); ++i) {
      JobResult& res = results[i];
      sort_ms += static_cast<double>(res.sort_ns) / 1e6;
      trace.sort_ns += res.sort_ns;
      trace.encode_ns += res.encode_ns;
      write_status = res.status;
      if (write_status.ok()) {
        write_status = writer.AppendEncodedChunk(jobs[i]->sensor, res.chunk);
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
  WritePathHistograms& h = shared_->histograms;
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
  flush_done_cv_.notify_all();
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
  auto bounds_overlap = [&](const MemTable& table) {
    const DoubleTVList* list = table.GetChunk(sid);
    return list != nullptr && list->size() > 0 &&
           list->max_time() >= t_min && list->min_time() <= t_max;
  };
  snap->working_in_range =
      bounds_overlap(*working_seq_) || bounds_overlap(*working_unseq_);
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

Status EngineShard::ReadFileRange(const SealedFileMeta& file,
                                  const std::string& sensor, Timestamp t_min,
                                  Timestamp t_max,
                                  std::vector<TvPairDouble>* out) {
  std::shared_ptr<const FooterIndex> footer;
  RETURN_NOT_OK(file.Footer(&footer));
  const ChunkLocator* locator = footer->Find(sensor);
  if (locator == nullptr) return Status::NotFound("sensor: " + sensor);
  std::optional<PageReader> reader;
  RETURN_NOT_OK(file.OpenChunk(sensor, *locator, &reader));
  const Status st = reader->Query(t_min, t_max, out);
  CountPageReads(shared_, *reader);
  return st;
}

Status EngineShard::Query(const std::string& sensor, Timestamp t_min,
                          Timestamp t_max, std::vector<TvPairDouble>* out) {
  out->clear();
  EngineSharedState& shared = *shared_;
  shared.queries.fetch_add(1, std::memory_order_relaxed);
  QueryPathHistograms& qh = shared.query_histograms;

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
  // sensor has no points in range is skipped without being opened.
  // Two levels: the registry's pinned O(1) file span first, then the
  // per-sensor locator from the (cache-resident, evictable) footer.
  // Priorities are assigned by list position (creation order) whether or
  // not a file survives pruning, so last-write-wins ordering is unchanged.
  WallTimer prune_timer;
  std::vector<std::pair<SealedFileRef, int>> files;
  files.reserve(snap.files.size());
  int priority = 0;
  uint64_t pruned = 0;
  for (const SealedFileRef& file : snap.files) {
    ++priority;
    if (shared.options.enable_file_pruning) {
      if (!file->SpanOverlaps(t_min, t_max)) {
        ++pruned;
        continue;
      }
      std::shared_ptr<const FooterIndex> footer;
      if (file->Footer(&footer).ok()) {
        const ChunkLocator* locator = footer->Find(sensor);
        if (locator == nullptr || locator->min_t > locator->max_t ||
            locator->max_t < t_min || locator->min_t > t_max) {
          ++pruned;
          continue;
        }
      }
      // An unreadable footer never prunes — the read below surfaces the
      // I/O error instead of silently dropping the file's points.
    }
    files.emplace_back(file, priority);
  }
  if (pruned > 0) {
    shared.query_files_pruned.fetch_add(pruned, std::memory_order_relaxed);
  }
  qh.prune.Record(static_cast<uint64_t>(prune_timer.ElapsedNanos()));

  // Stage 3 — gather per-source sorted runs with write-recency priorities:
  // sealed files in creation order, then in-flight flushing tables, then
  // the working-table copies (most recent writes).
  WallTimer read_timer;
  std::vector<SortedRun> runs;
  for (auto& [file, file_priority] : files) {
    SortedRun run;
    run.priority = file_priority;
    Status st = ReadFileRange(*file, sensor, t_min, t_max, &run.points);
    if (st.IsNotFound()) continue;
    if (!st.ok()) {
      // Propagate the failure with no partial state: a half-gathered
      // result must never masquerade as the query answer.
      out->clear();
      return st;
    }
    shared.query_files_opened.fetch_add(1, std::memory_order_relaxed);
    runs.push_back(std::move(run));
  }
  for (const auto& table : snap.flushing) {
    runs.push_back(
        {CollectFromMemTable(*table, snap.sid, t_min, t_max), ++priority});
  }
  auto finish_working = [&](std::vector<TvPairDouble>&& points, bool sorted) {
    if (!sorted && !points.empty()) {
      // The working table may have changed since the snapshot, so a sorter
      // that may reorder ties keeps its own arrival-order copy to re-sort.
      std::vector<TvPairDouble> arrival;
      if (!KeepsTieOrder(shared.options.sorter,
                         shared.options.backward_options)) {
        arrival = points;
      }
      SortArrivals(shared.options, &points,
                   [&](std::vector<TvPairDouble>* out) {
                     *out = std::move(arrival);
                   });
    }
    runs.push_back({std::move(points), ++priority});
  };
  finish_working(std::move(snap.working_unseq), snap.working_unseq_sorted);
  finish_working(std::move(snap.working_seq), snap.working_seq_sorted);
  qh.read.Record(static_cast<uint64_t>(read_timer.ElapsedNanos()));

  // Stage 4 — k-way last-write-wins merge.
  WallTimer merge_timer;
  MergeRuns(std::move(runs), out);
  qh.merge.Record(static_cast<uint64_t>(merge_timer.ElapsedNanos()));
  return Status::OK();
}

Status EngineShard::AggregateFast(const std::string& sensor, Timestamp t_min,
                                  Timestamp t_max,
                                  RangeStats* stats,
                                  bool* used_fast_path) {
  *stats = RangeStats{};
  if (used_fast_path != nullptr) *used_fast_path = false;
  EngineSharedState& shared = *shared_;
  shared.agg_requests.fetch_add(1, std::memory_order_relaxed);
  AggregatePathHistograms& ah = shared.agg_histograms;

  // An empty time range has a well-defined answer (count == 0) and needs
  // no snapshot, no I/O, not even the shard lock.
  if (t_max < t_min) {
    if (used_fast_path != nullptr) *used_fast_path = true;
    return Status::OK();
  }

  // Stage 1 — plan: consistent snapshot + shadow classification.
  //
  // Soundness: statistics cannot express last-write-wins shadowing, so the
  // metadata tiers require every point in range to live in exactly one
  // sequence file. Sequence files never overlap per sensor (the watermark
  // enforces strictly increasing time ranges). With pruning metadata the
  // guard sharpens: an unsequence file disqualifies only when it actually
  // holds points of this sensor inside the range (a non-overlapping one
  // cannot shadow anything the aggregate sees); with pruning disabled the
  // guard stays maximally conservative.
  WallTimer plan_timer;
  ReadSnapshot snap;
  TakeSnapshot(sensor, t_min, t_max, /*want_points=*/false, &snap);

  bool fast_ok = !snap.working_in_range;

  // Per-sensor pruning metadata lives in the (evictable) footer cache, not
  // pinned in the registry. Fetch each file's footer once for the whole
  // plan; the shared_ptrs also keep every locator pointer below alive
  // through the decode stage. A footer that cannot be read back forces the
  // exact merge path, which surfaces (or survives) the I/O error itself.
  std::vector<std::shared_ptr<const FooterIndex>> footers;
  if (fast_ok) {
    footers.resize(snap.files.size());
    for (size_t i = 0; i < snap.files.size(); ++i) {
      if (!snap.files[i]->Footer(&footers[i]).ok()) {
        fast_ok = false;
        break;
      }
    }
  }
  if (fast_ok) {
    for (size_t i = 0; i < snap.files.size(); ++i) {
      const SealedFileMeta& file = *snap.files[i];
      if (!file.unsequence()) continue;
      if (!shared.options.enable_file_pruning) {
        fast_ok = false;
        break;
      }
      const ChunkLocator* locator = footers[i]->Find(sensor);
      if (locator != nullptr && locator->min_t <= locator->max_t &&
          locator->max_t >= t_min && locator->min_t <= t_max) {
        fast_ok = false;
        break;
      }
    }
  }
  auto memtable_touches_range = [&](const MemTable& table) {
    const DoubleTVList* list = table.GetChunk(snap.sid);
    return list != nullptr && list->size() > 0 &&
           list->max_time() >= t_min && list->min_time() <= t_max;
  };
  if (fast_ok) {
    for (const auto& table : snap.flushing) {
      if (memtable_touches_range(*table)) {
        fast_ok = false;
        break;
      }
    }
  }

  if (!fast_ok) {
    // Tier 3 — some source can shadow the sealed chunks (working or
    // flushing memtable points in range, or an overlapping unsequence
    // file): only the full dedup merge gives the exact answer. Decode
    // stage = the Query; merge stage = the fold.
    ah.plan.Record(static_cast<uint64_t>(plan_timer.ElapsedNanos()));
    shared.agg_stats_misses.fetch_add(1, std::memory_order_relaxed);
    WallTimer decode_timer;
    std::vector<TvPairDouble> points;
    RETURN_NOT_OK(Query(sensor, t_min, t_max, &points));
    ah.decode.Record(static_cast<uint64_t>(decode_timer.ElapsedNanos()));
    WallTimer merge_timer;
    // Same NaN-contract fold as the statistics tiers.
    for (const TvPairDouble& p : points) stats->Fold(p.t, p.v);
    ah.merge.Record(static_cast<uint64_t>(merge_timer.ElapsedNanos()));
    return Status::OK();
  }

  // Per-chunk plan over the unshadowed sequence files. `partials` is
  // indexed by snapshot position so the final combine runs in file order
  // whatever order the tiers complete in — the floating-point sum is
  // deterministic for a given file set.
  struct DecodeTask {
    size_t slot;              // index into partials
    const SealedFileMeta* file;
    const ChunkLocator* locator;
  };
  std::vector<RangeStats> partials(snap.files.size());
  std::vector<DecodeTask> tasks;
  uint64_t hits = 0;
  for (size_t i = 0; i < snap.files.size(); ++i) {
    const SealedFileMeta& file = *snap.files[i];
    const ChunkLocator* locator = footers[i]->Find(sensor);
    if (locator == nullptr || locator->points == 0 ||
        locator->max_t < t_min || locator->min_t > t_max) {
      continue;  // nothing of this sensor in range
    }
    if (locator->min_t >= t_min && locator->max_t <= t_max &&
        locator->stats_usable()) {
      // Tier 1 — the chunk is fully covered and unshadowed: the footer
      // statistics ARE the chunk's aggregate; no byte of it is read.
      partials[i] = RangeStats::OfChunk(*locator);
      ++hits;
      continue;
    }
    // Tier 2 — partial range overlap or a stat-less (BSTF1) footer: the
    // page-level partial aggregation decodes only boundary pages.
    tasks.push_back({i, &file, locator});
  }
  ah.plan.Record(static_cast<uint64_t>(plan_timer.ElapsedNanos()));
  if (hits > 0) {
    shared.agg_stats_hits.fetch_add(hits, std::memory_order_relaxed);
  }
  if (!tasks.empty()) {
    shared.agg_stats_misses.fetch_add(tasks.size(),
                                      std::memory_order_relaxed);
  }

  // Stage 2 — stats: nothing left to do for tier-1 chunks (their partials
  // were filled from the footer during planning); the stage records the
  // (near-zero) bookkeeping cost so the exposition shows where time does
  // NOT go.
  WallTimer stats_timer;
  ah.stats.Record(static_cast<uint64_t>(stats_timer.ElapsedNanos()));

  // Stage 3 — decode: run the tier-2 chunk aggregations in file order.
  // Each reads and decodes at most its chunk's two boundary pages (the
  // interior folds from the cached page directory), too little work to be
  // worth a thread.
  WallTimer decode_timer;
  Status decode_status = Status::OK();
  for (const DecodeTask& task : tasks) {
    std::optional<PageReader> reader;
    decode_status = task.file->OpenChunk(sensor, *task.locator, &reader);
    if (!decode_status.ok()) break;
    decode_status = reader->Aggregate(t_min, t_max, &partials[task.slot]);
    CountPageReads(&shared, *reader);
    if (!decode_status.ok()) break;
  }
  ah.decode.Record(static_cast<uint64_t>(decode_timer.ElapsedNanos()));
  if (!decode_status.ok()) {
    *stats = RangeStats{};  // no partial aggregate on error
    return decode_status;
  }

  // Stage 4 — merge: combine the per-chunk partials in file order.
  WallTimer merge_timer;
  for (const RangeStats& part : partials) stats->Merge(part);
  ah.merge.Record(static_cast<uint64_t>(merge_timer.ElapsedNanos()));
  if (used_fast_path != nullptr) *used_fast_path = true;
  return Status::OK();
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
