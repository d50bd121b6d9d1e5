#include "engine/storage_engine.h"

#include "engine/wal_tailer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <thread>
#include <unordered_set>

namespace backsort {

namespace {

size_t EnvCount(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return 0;
  return static_cast<size_t>(std::strtoull(v, nullptr, 10));
}

double EnvRatio(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return 0.0;
  return std::strtod(v, nullptr);
}

}  // namespace

StorageEngine::StorageEngine(EngineOptions options) {
  shared_.options = std::move(options);
  shared_.pool = &pool_;

  // Resolve the chunk-cache capacity. EnvCount-style parsing is not usable
  // here: an explicit "0" must disable the cache, which is distinct from
  // the variable being unset, so getenv is consulted directly.
  size_t cache_bytes = shared_.options.chunk_cache_bytes;
  if (cache_bytes == EngineOptions::kChunkCacheAuto) {
    const char* env = std::getenv("BACKSORT_CHUNK_CACHE_BYTES");
    if (env != nullptr && *env != '\0') {
      cache_bytes = static_cast<size_t>(std::strtoull(env, nullptr, 10));
    } else {
      cache_bytes = EngineOptions::kDefaultChunkCacheBytes;
    }
  }
  shared_.chunk_cache = std::make_unique<ChunkCache>(cache_bytes);

  // Resolve the auto (0) settings: the BACKSORT_SHARDS /
  // BACKSORT_FLUSH_WORKERS environment hooks let tools/ci.sh run the whole
  // test suite in a sharded configuration without touching each test;
  // explicit option values always win.
  size_t shards = shared_.options.shard_count;
  if (shards == 0) shards = EnvCount("BACKSORT_SHARDS");
  if (shards == 0) shards = 1;

  size_t workers = shared_.options.flush_workers;
  if (workers == 0) workers = EnvCount("BACKSORT_FLUSH_WORKERS");
  if (workers == 0) {
    const size_t hw = std::thread::hardware_concurrency();
    workers = std::min(shards, hw == 0 ? size_t{1} : hw);
  }
  flush_workers_ = std::max<size_t>(workers, 1);

  size_t parallelism = shared_.options.flush_parallelism;
  if (parallelism == 0) parallelism = EnvCount("BACKSORT_FLUSH_PARALLELISM");
  if (parallelism == 0) parallelism = 1;
  shared_.options.flush_parallelism = parallelism;

  // Tiered-compaction tuning: explicit option values win, auto (0)
  // consults the BACKSORT_COMPACTION* environment, then the built-in
  // defaults. The enabled flag can only be forced ON by the environment,
  // never off (tests that construct with it set rely on that).
  compaction_enabled_ = shared_.options.compaction_enabled ||
                        EnvCount("BACKSORT_COMPACTION") != 0;
  compaction_config_.data_dir = shared_.options.data_dir;
  compaction_config_.points_per_page = shared_.options.points_per_page;
  compaction_config_.footer_stats = shared_.options.footer_stats;
  size_t fanin = shared_.options.compaction_max_fanin;
  if (fanin == 0) fanin = EnvCount("BACKSORT_COMPACTION_MAX_FANIN");
  if (fanin == 0) fanin = CompactionConfig::kDefaultMaxFanin;
  compaction_config_.max_fanin = std::max<size_t>(fanin, 2);
  double ratio = shared_.options.compaction_tier_ratio;
  if (ratio <= 0.0) ratio = EnvRatio("BACKSORT_COMPACTION_TIER_RATIO");
  if (ratio <= 1.0) ratio = CompactionConfig::kDefaultTierRatio;
  compaction_config_.tier_ratio = ratio;
  size_t trigger = shared_.options.compaction_trigger_files;
  if (trigger == 0) trigger = EnvCount("BACKSORT_COMPACTION_TRIGGER_FILES");
  if (trigger == 0) trigger = CompactionConfig::kDefaultTriggerFiles;
  compaction_config_.trigger_files = std::max<size_t>(trigger, 2);
  size_t interval = shared_.options.compaction_check_interval_ms;
  if (interval == 0) interval = EnvCount("BACKSORT_COMPACTION_INTERVAL_MS");
  if (interval == 0) interval = CompactionConfig::kDefaultCheckIntervalMs;
  compaction_config_.check_interval_ms = interval;

  const size_t per_shard_threshold =
      std::max<size_t>(shared_.options.memtable_flush_threshold / shards, 1);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(
        std::make_unique<EngineShard>(i, per_shard_threshold, &shared_));
  }
}

StorageEngine::~StorageEngine() {
  // Stop the compaction scheduler first: an in-flight job may still
  // consult pool_.queue_depth() and swap files into the shards, so both
  // must outlive it.
  if (compaction_scheduler_ != nullptr) compaction_scheduler_->Stop();
  // Drain and join the flush workers before any shard (and its WAL
  // writers) is destroyed.
  pool_.Stop();
}

size_t StorageEngine::ShardFor(const std::string& sensor) const {
  return std::hash<std::string>{}(sensor) % shards_.size();
}

Status StorageEngine::Open() {
  std::error_code ec;
  std::filesystem::create_directories(shared_.options.data_dir, ec);
  if (ec) {
    return Status::IOError("cannot create data dir " +
                           shared_.options.data_dir + ": " + ec.message());
  }
  // Sweep orphaned compaction temporaries before recovery scans the
  // directory: a crash between a job's output write and its rename
  // leaves "*.bstf.tmp" files that are not data and must neither be
  // replayed nor accumulate.
  for (const auto& entry :
       std::filesystem::directory_iterator(shared_.options.data_dir)) {
    const std::string name = entry.path().filename().string();
    constexpr const char kTmpSuffix[] = ".bstf.tmp";
    constexpr size_t kTmpSuffixLen = sizeof(kTmpSuffix) - 1;
    if (name.size() > kTmpSuffixLen &&
        name.compare(name.size() - kTmpSuffixLen, kTmpSuffixLen,
                     kTmpSuffix) == 0) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
  RETURN_NOT_OK(RecoverAll());
  if (shared_.options.async_flush && !pool_started_) {
    pool_.Start(flush_workers_);
    pool_started_ = true;
  }
  if (compaction_enabled_ && compaction_scheduler_ == nullptr) {
    compaction_scheduler_ = std::make_unique<CompactionScheduler>(
        this, &pool_, compaction_config_.check_interval_ms);
    compaction_scheduler_->Start();
  }
  return Status::OK();
}

Status StorageEngine::RecoverAll() {
  const std::string& data_dir = shared_.options.data_dir;

  // 1. Scan the data dir once: sealed TsFiles (sorted, their order is the
  //    query/compaction priority order) and WAL segments (sorted by name =
  //    globally allocated id = write order).
  std::vector<std::string> tsfiles;
  std::vector<std::filesystem::path> wal_paths;
  for (const auto& entry : std::filesystem::directory_iterator(data_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 5 && name.substr(name.size() - 5) == ".bstf") {
      tsfiles.push_back(entry.path().string());
      const size_t dash = name.rfind('-');
      if (dash != std::string::npos) {
        const size_t id = static_cast<size_t>(
            std::strtoull(name.c_str() + dash + 1, nullptr, 10));
        size_t expect = shared_.next_file_id.load();
        while (expect <= id &&
               !shared_.next_file_id.compare_exchange_weak(expect, id + 1)) {
        }
      }
    } else if (name.rfind("wal-", 0) == 0) {
      wal_paths.push_back(entry.path());
      const size_t id = static_cast<size_t>(
          std::strtoull(name.c_str() + 4, nullptr, 10));
      size_t expect = shared_.next_wal_id.load();
      while (expect <= id &&
             !shared_.next_wal_id.compare_exchange_weak(expect, id + 1)) {
      }
    } else {
      // Surviving ship-log segments (replication mode): never replayed or
      // deleted here — the replicator still owes their tail to the
      // follower — but the per-shard segment allocator must move past
      // them. Segments of a shard id beyond the current count (shard_count
      // changed, which replication docs forbid) are left inert.
      size_t ship_shard = 0, ship_seq = 0;
      if (ParseShipSegmentName(name, &ship_shard, &ship_seq) &&
          ship_shard < shards_.size()) {
        shards_[ship_shard]->RecoverShipSeq(ship_seq + 1);
      }
    }
  }
  std::sort(tsfiles.begin(), tsfiles.end());
  std::sort(wal_paths.begin(), wal_paths.end());

  // 2. Re-adopt sealed files: parse each footer into a shared
  //    SealedFileMeta (the pruning metadata), register it with every shard
  //    owning a sensor in it (after a shard-count change one old file can
  //    span shards), rebuild per-sensor watermarks from the sequence
  //    files, and rebuild the last cache in file (recency) order. Every
  //    chunk is decoded through the query path's PageReader, so a file
  //    that queries would reject fails startup instead.
  std::vector<SealedFileRef> metas;
  metas.reserve(tsfiles.size());
  std::vector<TvPairDouble> points;
  for (const std::string& path : tsfiles) {
    const std::string name = std::filesystem::path(path).filename().string();
    const bool sequence = name.rfind("seq-", 0) == 0;
    FooterMap footer;
    RETURN_NOT_OK(ReadTsFileFooter(path, &footer));
    SealedFileRef meta = std::make_shared<SealedFileMeta>(
        path, std::make_shared<const FooterIndex>(footer),
        shared_.chunk_cache.get());
    metas.push_back(meta);
    for (const auto& [sensor, locator] : footer) {
      EngineShard* shard = shards_[ShardFor(sensor)].get();
      shard->RecoverAdoptFile(meta);
      std::optional<PageReader> pages;
      RETURN_NOT_OK(OpenPageReader(path, sensor, locator, nullptr, &pages));
      points.clear();
      RETURN_NOT_OK(pages->Query(std::numeric_limits<Timestamp>::min(),
                                 std::numeric_limits<Timestamp>::max(),
                                 &points));
      if (points.empty()) continue;
      if (sequence) shard->RecoverWatermark(sensor, points.back().t);
      shard->RecoverLastCache(sensor, points.back().t, points.back().v);
    }
  }
  {
    std::unique_lock<std::mutex> lock(shared_.files_mu);
    shared_.all_files = std::move(metas);
    shared_.file_count.store(shared_.all_files.size());
  }

  // 3. Replay WAL segments in id order into the fresh working memtables.
  //    Separation is re-derived from the rebuilt watermarks; sealed-but-
  //    unflushed tables simply become working data again.
  for (const auto& path : wal_paths) {
    std::vector<WalRecord> records;
    bool torn = false;
    RETURN_NOT_OK(ReadWal(path.string(), &records, &torn));
    for (const WalRecord& r : records) {
      shards_[ShardFor(r.sensor)]->RecoverReplayRecord(r);
    }
    (void)torn;  // a torn tail after a crash is expected, not an error
  }
  if (!shared_.options.enable_wal) return Status::OK();

  // 4. Re-log the recovered points into fresh segments and sync them, so
  //    every in-memory point is covered by exactly one live WAL segment;
  //    only then are the replayed segments safe to drop.
  for (auto& shard : shards_) {
    RETURN_NOT_OK(shard->RecoverRelog());
  }
  for (const auto& path : wal_paths) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  return Status::OK();
}

Status StorageEngine::Write(const std::string& sensor, Timestamp t,
                            double v) {
  const TvPairDouble point{t, v};
  const SensorSpanDouble span{&sensor, &point, 1};
  return shards_[ShardFor(sensor)]->WriteBatch(&span, 1, nullptr);
}

Status StorageEngine::WriteBatch(const std::string& sensor,
                                 const std::vector<TvPairDouble>& points,
                                 size_t* applied) {
  const SensorSpanDouble group{&sensor, points.data(), points.size()};
  return shards_[ShardFor(sensor)]->WriteBatch(&group, 1, applied);
}

Status StorageEngine::WriteMulti(const SensorSpanDouble* spans,
                                 size_t span_count, size_t* applied) {
  return WriteMultiImpl(spans, span_count, applied, /*ship=*/true);
}

Status StorageEngine::WriteReplicated(const SensorSpanDouble* spans,
                                      size_t span_count, size_t* applied) {
  return WriteMultiImpl(spans, span_count, applied, /*ship=*/false);
}

Status StorageEngine::WriteMultiImpl(const SensorSpanDouble* spans,
                                     size_t span_count, size_t* applied,
                                     bool ship) {
  if (applied != nullptr) *applied = 0;
  // Group by shard so each shard sees one batched call covering all its
  // sensors' slices.
  std::vector<std::vector<SensorSpanDouble>> per_shard(shards_.size());
  for (size_t i = 0; i < span_count; ++i) {
    const SensorSpanDouble& span = spans[i];
    if (span.count == 0) continue;
    per_shard[ShardFor(*span.sensor)].push_back(span);
  }
  for (size_t s = 0; s < per_shard.size(); ++s) {
    if (per_shard[s].empty()) continue;
    size_t shard_applied = 0;
    const Status st = shards_[s]->WriteBatch(
        per_shard[s].data(), per_shard[s].size(), &shard_applied, ship);
    if (applied != nullptr) *applied += shard_applied;
    RETURN_NOT_OK(st);
  }
  return Status::OK();
}

Status StorageEngine::Query(const std::string& sensor, Timestamp t_min,
                            Timestamp t_max,
                            std::vector<TvPairDouble>* out) {
  return shards_[ShardFor(sensor)]->Query(sensor, t_min, t_max, out);
}

Status StorageEngine::GetLatest(const std::string& sensor,
                                TvPairDouble* out) {
  return shards_[ShardFor(sensor)]->GetLatest(sensor, out);
}

Status StorageEngine::AggregateFast(const std::string& sensor,
                                    Timestamp t_min, Timestamp t_max,
                                    RangeStats* stats,
                                    bool* used_fast_path) {
  return shards_[ShardFor(sensor)]->AggregateFast(sensor, t_min, t_max, stats,
                                                  used_fast_path);
}

Status StorageEngine::FlushAll() {
  if (!shared_.options.async_flush) {
    for (auto& shard : shards_) {
      RETURN_NOT_OK(shard->SealAndDrainSync());
    }
    return Status::OK();
  }
  // Seal every shard first so the pool overlaps their flushes, then wait.
  for (auto& shard : shards_) shard->SealBoth();
  for (auto& shard : shards_) shard->WaitFlushed();
  return Status::OK();
}

FlushMetrics StorageEngine::GetFlushMetrics() const {
  FlushMetrics merged;
  for (const auto& shard : shards_) {
    merged.Merge(shard->GetFlushMetrics());
  }
  return merged;
}

EngineMetricsSnapshot StorageEngine::GetMetricsSnapshot() const {
  EngineMetricsSnapshot snap;
  snap.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    snap.shards.push_back(shard->Snapshot());
    snap.flush.Merge(snap.shards.back().flush);
  }
  snap.sealed_files = shared_.file_count.load();
  snap.stages = shared_.histograms.Snapshot();
  snap.query_stages = shared_.query_histograms.Snapshot();
  snap.queries = shared_.queries.load(std::memory_order_relaxed);
  snap.query_files_pruned =
      shared_.query_files_pruned.load(std::memory_order_relaxed);
  snap.query_files_opened =
      shared_.query_files_opened.load(std::memory_order_relaxed);
  snap.sealed_bytes_read =
      shared_.sealed_bytes_read.load(std::memory_order_relaxed);
  snap.sealed_pages_decoded =
      shared_.sealed_pages_decoded.load(std::memory_order_relaxed);
  snap.agg_stages = shared_.agg_histograms.Snapshot();
  snap.agg_requests = shared_.agg_requests.load(std::memory_order_relaxed);
  snap.agg_stats_hits =
      shared_.agg_stats_hits.load(std::memory_order_relaxed);
  snap.agg_stats_misses =
      shared_.agg_stats_misses.load(std::memory_order_relaxed);
  snap.cache = shared_.chunk_cache->GetStats();
  snap.batch_writes = shared_.batch_writes.load(std::memory_order_relaxed);
  snap.batch_points = shared_.batch_points.load(std::memory_order_relaxed);
  snap.compaction_stages = shared_.compaction_histograms.Snapshot();
  snap.compaction_jobs =
      shared_.compaction_jobs.load(std::memory_order_relaxed);
  snap.compaction_failures =
      shared_.compaction_failures.load(std::memory_order_relaxed);
  snap.compaction_input_files =
      shared_.compaction_input_files.load(std::memory_order_relaxed);
  snap.compaction_output_bytes =
      shared_.compaction_output_bytes.load(std::memory_order_relaxed);
  return snap;
}

ChunkCacheStats StorageEngine::GetChunkCacheStats() const {
  return shared_.chunk_cache->GetStats();
}

void StorageEngine::SnapshotFiles(std::vector<SealedFileRef>* files,
                                  std::vector<uint64_t>* sizes) const {
  {
    std::unique_lock<std::mutex> lock(shared_.files_mu);
    *files = shared_.all_files;
  }
  sizes->clear();
  sizes->reserve(files->size());
  for (const SealedFileRef& f : *files) {
    std::error_code ec;
    const uint64_t bytes = std::filesystem::file_size(f->path(), ec);
    sizes->push_back(ec ? 0 : bytes);
  }
}

size_t StorageEngine::CompactionFileBound() const {
  std::vector<SealedFileRef> files;
  std::vector<uint64_t> sizes;
  SnapshotFiles(&files, &sizes);
  uint64_t total = 0;
  for (uint64_t b : sizes) total += b;
  return CompactionPlanner(compaction_config_).StableFileBound(total);
}

Status StorageEngine::ApplyCompactionSwap(const CompactionPlan& plan,
                                          const SealedFileRef& out_meta) {
  std::unordered_set<const SealedFileMeta*> input_set;
  for (const SealedFileRef& f : plan.inputs) input_set.insert(f.get());
  std::vector<SealedFileRef> obsolete;
  {
    // All shard locks in index order, then files_mu — the documented
    // hierarchy; queries across shards never observe a half-swapped set.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (auto& shard : shards_) locks.emplace_back(shard->mu());
    std::unique_lock<std::mutex> files_lock(shared_.files_mu);

    // The plan's window must still sit at its snapshot position:
    // compaction is serialized and flushes only append, so anything else
    // means a bookkeeping bug — refuse to touch the registry.
    std::vector<SealedFileRef>& all = shared_.all_files;
    if (plan.begin + plan.inputs.size() > all.size()) {
      return Status::Corruption("compaction window outran the registry");
    }
    for (size_t i = 0; i < plan.inputs.size(); ++i) {
      if (all[plan.begin + i].get() != plan.inputs[i].get()) {
        return Status::Corruption("compaction window moved during merge");
      }
    }

    // Shard consult lists are order-preserving subsequences of the
    // engine list, so each shard's window members are contiguous there
    // too: the output replaces them in place (shards with no input from
    // the window never see the output — none of their sensors live in
    // it).
    for (auto& shard : shards_) {
      std::vector<SealedFileRef>& list = shard->sealed_files_locked();
      std::vector<SealedFileRef> next;
      next.reserve(list.size());
      bool inserted = false;
      for (const SealedFileRef& f : list) {
        if (input_set.count(f.get()) != 0) {
          if (!inserted) {
            next.push_back(out_meta);
            inserted = true;
          }
          continue;
        }
        next.push_back(f);
      }
      list = std::move(next);
    }

    obsolete.assign(all.begin() + static_cast<ptrdiff_t>(plan.begin),
                    all.begin() +
                        static_cast<ptrdiff_t>(plan.begin +
                                               plan.inputs.size()));
    all.erase(all.begin() + static_cast<ptrdiff_t>(plan.begin),
              all.begin() +
                  static_cast<ptrdiff_t>(plan.begin + plan.inputs.size()));
    all.insert(all.begin() + static_cast<ptrdiff_t>(plan.begin), out_meta);
    shared_.file_count.store(all.size());
  }
  // Deferred deletion: queries that snapshotted before the swap still
  // hold refs and keep reading the old bytes; the last ref's destructor
  // invalidates each file's cache entries and unlinks it.
  for (const SealedFileRef& f : obsolete) f->MarkObsolete();
  return Status::OK();
}

Status StorageEngine::RunCompactionPlan(const CompactionPlan& plan,
                                        bool* performed) {
  CompactionJob job(compaction_config_, shared_.chunk_cache.get());
  SealedFileRef out_meta;
  CompactionStats cstats;
  const int64_t merge_start = shared_.NowNs();
  Status st = job.Run(plan, &out_meta, &cstats);
  shared_.compaction_histograms.merge.Record(
      static_cast<uint64_t>(shared_.NowNs() - merge_start));
  if (!st.ok()) {
    shared_.compaction_failures.fetch_add(1, std::memory_order_relaxed);
    return st;
  }
  const int64_t publish_start = shared_.NowNs();
  st = ApplyCompactionSwap(plan, out_meta);
  if (!st.ok()) {
    // Defensive: the output was never registered; obsolete it so its
    // bytes are removed when the local ref drops.
    out_meta->MarkObsolete();
    shared_.compaction_failures.fetch_add(1, std::memory_order_relaxed);
    return st;
  }
  shared_.compaction_histograms.publish.Record(
      static_cast<uint64_t>(shared_.NowNs() - publish_start));
  shared_.compaction_jobs.fetch_add(1, std::memory_order_relaxed);
  shared_.compaction_input_files.fetch_add(plan.inputs.size(),
                                           std::memory_order_relaxed);
  shared_.compaction_output_bytes.fetch_add(cstats.output_bytes,
                                            std::memory_order_relaxed);
  if (performed != nullptr) *performed = true;
  return Status::OK();
}

Status StorageEngine::CompactStep(bool* performed) {
  if (performed != nullptr) *performed = false;
  std::lock_guard<std::mutex> serial(compact_mu_);
  std::vector<SealedFileRef> files;
  std::vector<uint64_t> sizes;
  const int64_t plan_start = shared_.NowNs();
  SnapshotFiles(&files, &sizes);
  const CompactionPlanner planner(compaction_config_);
  CompactionPlan plan = planner.PlanTiered(files, sizes);
  shared_.compaction_histograms.plan.Record(
      static_cast<uint64_t>(shared_.NowNs() - plan_start));
  if (plan.empty()) return Status::OK();
  return RunCompactionPlan(plan, performed);
}

Status StorageEngine::Compact() {
  std::lock_guard<std::mutex> serial(compact_mu_);
  // Only the files present now are this call's responsibility; anything
  // flushed while it runs is appended behind the window and left alone
  // (also what bounds the loop under continuous ingest).
  size_t remaining = 0;
  {
    std::unique_lock<std::mutex> lock(shared_.files_mu);
    remaining = shared_.all_files.size();
  }
  const CompactionPlanner planner(compaction_config_);
  while (remaining >= 2) {
    std::vector<SealedFileRef> files;
    std::vector<uint64_t> sizes;
    const int64_t plan_start = shared_.NowNs();
    SnapshotFiles(&files, &sizes);
    CompactionPlan plan = planner.PlanFull(files, sizes, remaining);
    shared_.compaction_histograms.plan.Record(
        static_cast<uint64_t>(shared_.NowNs() - plan_start));
    if (plan.empty()) break;
    RETURN_NOT_OK(RunCompactionPlan(plan, nullptr));
    remaining = remaining - plan.inputs.size() + 1;
  }
  return Status::OK();
}

}  // namespace backsort
