#include "engine/compaction.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <system_error>
#include <thread>
#include <utility>

#include "common/heap_trim.h"
#include "engine/flush_pool.h"
#include "engine/storage_engine.h"

namespace backsort {

// --- output naming ----------------------------------------------------------

namespace {

/// Generations are zero-padded to this width so they sort numerically;
/// each increment at one base multiplies the data merged under it, so
/// the cap is unreachable in practice (and hitting it fails the job
/// cleanly rather than emitting a name that sorts out of order).
constexpr size_t kGenDigits = 6;
constexpr size_t kMaxGeneration = 999'999;

bool AllDigits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

}  // namespace

Status ParseSealedFileName(const std::string& filename, std::string* base,
                           size_t* gen) {
  base->clear();
  *gen = 0;
  constexpr const char kExt[] = ".bstf";
  constexpr size_t kExtLen = sizeof(kExt) - 1;
  const size_t dash = filename.find('-');
  if (dash == std::string::npos || filename.size() < dash + 1 + kExtLen ||
      filename.compare(filename.size() - kExtLen, kExtLen, kExt) != 0) {
    return Status::InvalidArgument("not a sealed-file name: " + filename);
  }
  const std::string stem =
      filename.substr(dash + 1, filename.size() - kExtLen - (dash + 1));
  const size_t g = stem.find('g');
  if (g == std::string::npos) {
    if (!AllDigits(stem)) {
      return Status::InvalidArgument("bad base id in: " + filename);
    }
    *base = stem;
    return Status::OK();
  }
  const std::string base_part = stem.substr(0, g);
  const std::string gen_part = stem.substr(g + 1);
  if (!AllDigits(base_part) || !AllDigits(gen_part) ||
      gen_part.size() != kGenDigits) {
    return Status::InvalidArgument("bad base/generation in: " + filename);
  }
  *base = base_part;
  *gen = static_cast<size_t>(std::strtoull(gen_part.c_str(), nullptr, 10));
  return Status::OK();
}

Status CompactionOutputName(const std::string& first_input_filename,
                            bool sequence_output, std::string* out_name) {
  out_name->clear();
  std::string base;
  size_t gen = 0;
  RETURN_NOT_OK(ParseSealedFileName(first_input_filename, &base, &gen));
  if (gen >= kMaxGeneration) {
    return Status::InvalidArgument("compaction generation overflow at: " +
                                   first_input_filename);
  }
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), "g%06zu.bstf", gen + 1);
  *out_name = std::string(sequence_output ? "seq-" : "unseq-") + base + suffix;
  return Status::OK();
}

// --- planner ----------------------------------------------------------------

size_t CompactionPlanner::TierOf(uint64_t bytes) const {
  const double ratio = config_.tier_ratio > 1.0
                           ? config_.tier_ratio
                           : CompactionConfig::kDefaultTierRatio;
  size_t tier = 0;
  double bound = static_cast<double>(CompactionConfig::kTierBaseBytes);
  while (static_cast<double>(bytes) > bound) {
    ++tier;
    bound *= ratio;
    if (tier > 64) break;  // unreachable with sane ratios; stay finite
  }
  return tier;
}

size_t CompactionPlanner::StableFileBound(uint64_t total_bytes) const {
  // A converged engine holds at most trigger_files - 1 files per occupied
  // tier (one more would trigger); every tier up to the one holding all
  // the data can be occupied.
  const size_t tiers = TierOf(total_bytes) + 1;
  const size_t per_tier =
      config_.trigger_files > 1 ? config_.trigger_files - 1 : 1;
  return std::max<size_t>(1, tiers * per_tier);
}

CompactionPlan CompactionPlanner::WindowPlan(
    const std::vector<SealedFileRef>& files,
    const std::vector<uint64_t>& sizes, size_t begin, size_t count) const {
  CompactionPlan plan;
  plan.begin = begin;
  plan.inputs.assign(files.begin() + static_cast<ptrdiff_t>(begin),
                     files.begin() + static_cast<ptrdiff_t>(begin + count));
  plan.input_bytes.assign(sizes.begin() + static_cast<ptrdiff_t>(begin),
                          sizes.begin() + static_cast<ptrdiff_t>(begin + count));
  bool all_seq = true;
  for (const SealedFileRef& f : plan.inputs) {
    if (f->unsequence()) all_seq = false;
  }
  plan.sequence_output = all_seq || count == files.size();
  return plan;
}

CompactionPlan CompactionPlanner::PlanTiered(
    const std::vector<SealedFileRef>& files,
    const std::vector<uint64_t>& sizes) const {
  CompactionPlan none;
  if (files.size() < 2 || files.size() != sizes.size()) return none;
  const size_t trigger = std::max<size_t>(2, config_.trigger_files);
  const size_t fanin = std::max<size_t>(2, config_.max_fanin);

  // Maximal runs of consecutive same-tier files, creation order. Among
  // runs long enough to trigger, pick the smallest tier (fresh flushes
  // land there, so that is where file count grows fastest); merge the
  // run's oldest files.
  size_t best_begin = 0, best_len = 0, best_tier = 0;
  bool have_best = false;
  size_t run_begin = 0;
  size_t run_tier = TierOf(sizes[0]);
  auto consider = [&](size_t begin, size_t len, size_t tier) {
    if (len < trigger) return;
    if (!have_best || tier < best_tier ||
        (tier == best_tier && len > best_len)) {
      have_best = true;
      best_begin = begin;
      best_len = len;
      best_tier = tier;
    }
  };
  for (size_t i = 1; i <= files.size(); ++i) {
    const size_t tier = i < files.size() ? TierOf(sizes[i]) : SIZE_MAX;
    if (i == files.size() || tier != run_tier) {
      consider(run_begin, i - run_begin, run_tier);
      run_begin = i;
      run_tier = tier;
    }
  }
  if (have_best) {
    CompactionPlan plan =
        WindowPlan(files, sizes, best_begin, std::min(best_len, fanin));
    plan.tier = best_tier;
    return plan;
  }
  // No run triggers, yet the list can still sit above the stable bound:
  // merges of a few files land on either side of a tier boundary and
  // leave alternating tiers no run of which ever grows long enough. Then
  // merge the contiguous fan-in window holding the fewest bytes.
  uint64_t total = 0;
  for (uint64_t b : sizes) total += b;
  if (files.size() <= StableFileBound(total)) return none;
  const size_t count = std::min(fanin, files.size());
  uint64_t window = 0;
  for (size_t i = 0; i < count; ++i) window += sizes[i];
  uint64_t fewest = window;
  size_t fewest_begin = 0;
  for (size_t begin = 1; begin + count <= files.size(); ++begin) {
    window += sizes[begin + count - 1];
    window -= sizes[begin - 1];
    if (window < fewest) {
      fewest = window;
      fewest_begin = begin;
    }
  }
  return WindowPlan(files, sizes, fewest_begin, count);
}

CompactionPlan CompactionPlanner::PlanFull(
    const std::vector<SealedFileRef>& files,
    const std::vector<uint64_t>& sizes, size_t begin, size_t limit) const {
  CompactionPlan none;
  if (files.size() != sizes.size()) return none;
  const size_t end = std::min(files.size(), limit);
  if (begin >= end) return none;
  const size_t fanin = std::max<size_t>(2, config_.max_fanin);
  const size_t count = std::min(fanin, end - begin);
  if (count < 2) return none;
  return WindowPlan(files, sizes, begin, count);
}

// --- job --------------------------------------------------------------------

namespace {

/// Finished output chunks spill to disk once this much encoded data is
/// buffered, so writer memory is this much, not the output file (Finish
/// produces the same bytes regardless).
constexpr size_t kCompactionSpillBytes = 1u << 20;  // 1 MiB

/// The merge's chunk sink: one sensor's merged points go into `chunk` in
/// pages of `points_per_page` (see MergeSensor for the clean pages it
/// copies). Each input page is read and decoded once.
struct ChunkSink {
  const std::vector<MergeCursor>& cursors;
  size_t points_per_page;
  ChunkBuilder* chunk;
  CompactionStats* stats;
  std::vector<Timestamp> page_ts = {};  // the output page being built
  std::vector<double> page_vals = {};

  bool Whole(size_t w) const {
    const PageDirectory& dir = *cursors[w].reader().directory();
    return dir.time_encoding == static_cast<uint8_t>(Encoding::kTs2Diff) &&
           dir.value_encoding == static_cast<uint8_t>(Encoding::kGorilla) &&
           cursors[w].entry().points <= points_per_page;
  }

  /// Writes the clean page: its buffers verbatim when its times strictly
  /// increase, else its last-write-wins survivors as one page.
  Status Page(MergeCursor& c, bool) {
    RETURN_NOT_OK(FlushPage());
    RETURN_NOT_OK(c.Decode());
    NoteResident();
    PageReader& reader = c.reader();
    const std::vector<Timestamp>& times = reader.page_times();
    const std::vector<double>& values = reader.page_values();
    if (std::adjacent_find(times.begin(), times.end(),
                           std::greater_equal<Timestamp>()) == times.end()) {
      ++stats->pages_copied;
      stats->output_points += times.size();
      return chunk->AppendEncodedPageF64(times, values,
                                         reader.page_time_bytes(),
                                         reader.page_value_bytes());
    }
    ++stats->pages_merged;
    for (size_t i = 0; i < times.size(); ++i) {
      if (i + 1 == times.size() || times[i + 1] != times[i]) {
        RETURN_NOT_OK(Point(times[i], values[i]));
      }
    }
    return FlushPage();
  }

  Status Point(Timestamp t, double v) {
    ++stats->output_points;
    page_ts.push_back(t);
    page_vals.push_back(v);
    return page_ts.size() == points_per_page ? FlushPage() : Status::OK();
  }

  void Decoded(const MergeCursor&) {
    ++stats->pages_merged;
    NoteResident();
  }

  /// Writes the partial output page.
  Status FlushPage() {
    if (page_ts.empty()) return Status::OK();
    NoteResident();
    RETURN_NOT_OK(chunk->AppendPageF64(page_ts, page_vals));
    page_ts.clear();
    page_vals.clear();
    return Status::OK();
  }

  /// Decoded points now resident: the cursors' pages, the output page and
  /// the merge's pending point.
  void NoteResident() {
    size_t resident = page_ts.size() + 1;
    for (const MergeCursor& c : cursors) resident += c.page_points();
    stats->max_resident_points =
        std::max(stats->max_resident_points, resident);
  }
};

}  // namespace

CompactionJob::CompactionJob(const CompactionConfig& config,
                             ChunkCache* cache, const FlushPool* pool)
    : config_(config),
      cache_(cache),
      pool_(pool),
      workers_(std::max(1u, std::thread::hardware_concurrency())) {}

Status CompactionJob::MergeSensor(const CompactionPlan& plan,
                                  const std::vector<SensorSource>& sources,
                                  const std::string& sensor,
                                  ChunkBuilder* chunk,
                                  CompactionStats* stats) const {
  const size_t points_per_page = config_.points_per_page == 0
                                     ? TsFileWriter::kDefaultPointsPerPage
                                     : config_.points_per_page;
  std::vector<std::optional<PageReader>> readers(sources.size());
  std::vector<MergeCursor> cursors;
  cursors.reserve(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    RETURN_NOT_OK(OpenPageReader(plan.inputs[sources[i].input]->path(),
                                 sensor, sources[i].locator, nullptr,
                                 &readers[i]));
    cursors.emplace_back(&*readers[i]);
  }

  ChunkSink sink{cursors, points_per_page, chunk, stats};
  RETURN_NOT_OK(MergeSources(cursors, sink));
  return sink.FlushPage();
}

Status CompactionJob::Run(const CompactionPlan& plan, SealedFileRef* out_meta,
                          CompactionStats* stats) {
  *out_meta = nullptr;
  *stats = CompactionStats{};
  if (plan.empty()) {
    return Status::InvalidArgument("compaction plan needs >= 2 inputs");
  }
  stats->input_files = plan.inputs.size();
  for (uint64_t b : plan.input_bytes) stats->input_bytes += b;

  // Union of sensors across inputs; each sensor's sources stay in window
  // order (= LWW priority order) because inputs are visited in order.
  std::map<std::string, std::vector<SensorSource>> sensors;
  for (size_t i = 0; i < plan.inputs.size(); ++i) {
    // Footers are cache-resident (not pinned in the registry); fetch each
    // input's once — SensorSource copies the locators it needs.
    std::shared_ptr<const FooterIndex> ranges;
    RETURN_NOT_OK(plan.inputs[i]->Footer(&ranges));
    for (size_t k = 0; k < ranges->size(); ++k) {
      const ChunkLocator& locator = ranges->LocatorAt(k);
      if (locator.points == 0) continue;
      sensors[std::string(ranges->NameAt(k))].push_back(
          SensorSource{i, locator});
    }
  }
  stats->sensors = sensors.size();
  // The file's chunk order: sensor names, lexicographic.
  std::vector<const std::pair<const std::string, std::vector<SensorSource>>*>
      order;
  order.reserve(sensors.size());
  for (const auto& entry : sensors) order.push_back(&entry);

  // The output takes the window's list position, so its name must sort
  // there too — recovery rebuilds query priority by sorting names (see
  // CompactionOutputName). Inputs are in list = name order, so the
  // first input is the window's smallest name.
  std::string name;
  RETURN_NOT_OK(CompactionOutputName(
      std::filesystem::path(plan.inputs.front()->path()).filename().string(),
      plan.sequence_output, &name));
  const std::string final_path = config_.data_dir + "/" + name;
  const std::string tmp_path = final_path + ".tmp";

  auto fail = [&tmp_path](Status st) {
    std::error_code ec;
    std::filesystem::remove(tmp_path, ec);
    return st;
  };

  TsFileWriter writer(tmp_path);
  writer.set_footer_stats(config_.footer_stats);
  writer.set_spill_threshold(kCompactionSpillBytes);

  // Claims go in name order and each chunk waits for `next_append` to
  // reach it, so the writer sees exactly the serial loop's chunk order.
  std::mutex mu;
  std::condition_variable turn;
  size_t next_claim = 0;
  size_t next_append = 0;
  Status failure;  // the first failure; stops all claiming
  auto work = [&](bool caller) {
    std::unique_lock<std::mutex> lock(mu);
    while (failure.ok() && next_claim < order.size()) {
      // Flushes preempt maintenance: a helper leaves the job while one is
      // queued, and the caller, which never yields, finishes it.
      if (!caller && pool_ != nullptr && pool_->queue_depth() > 0) break;
      const size_t i = next_claim++;
      lock.unlock();
      const auto& [sensor, sources] = *order[i];
      ChunkBuilder chunk(sensor);
      CompactionStats merge;
      Status st = MergeSensor(plan, sources, sensor, &chunk, &merge);
      lock.lock();
      if (st.ok()) {
        turn.wait(lock, [&] { return next_append == i || !failure.ok(); });
        if (!failure.ok()) break;
        // The turn is this worker's alone until next_append moves on.
        lock.unlock();
        st = writer.AppendChunk(chunk);
        lock.lock();
        ++next_append;
        stats->output_points += merge.output_points;
        stats->pages_copied += merge.pages_copied;
        stats->pages_merged += merge.pages_merged;
        stats->max_resident_points =
            std::max(stats->max_resident_points, merge.max_resident_points);
      }
      if (!st.ok() && failure.ok()) failure = st;
      turn.notify_all();
    }
  };
  std::vector<std::thread> helpers;
  const size_t workers = std::min(workers_, std::max<size_t>(1, order.size()));
  helpers.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) {
    try {
      helpers.emplace_back(work, false);
    } catch (const std::system_error&) {
      break;  // no thread to spare: the workers already running finish
    }
  }
  stats->workers = helpers.size() + 1;
  work(true);
  for (std::thread& helper : helpers) helper.join();
  // The merges rebuilt about the inputs' bytes in chunks and pages that
  // are all freed now, partly in the helpers' arenas.
  MaybeTrimHeap(stats->input_bytes);
  if (!failure.ok()) return fail(failure);

  Status st = writer.Finish();
  if (!st.ok()) return fail(st);
  // The swap retires (and eventually unlinks) the inputs, which ARE
  // durable — so the replacement must be just as durable before it can
  // take their place: fsync the bytes, rename, fsync the directory
  // entry. A power cut at any point leaves either the old inputs or a
  // complete output on disk, never neither.
  st = SyncFileToDisk(tmp_path);
  if (!st.ok()) return fail(st);

  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    return fail(Status::IOError("rename failed: " + tmp_path + ": " +
                                ec.message()));
  }
  // Past the rename the name is deterministic, so a retry of this plan
  // regenerates and atomically replaces it — no cleanup needed on the
  // (exotic) directory-fsync failure below, and recovery adopting an
  // unregistered output alongside its live inputs is LWW-identical.
  RETURN_NOT_OK(SyncDirToDisk(config_.data_dir));
  stats->output_bytes = std::filesystem::file_size(final_path, ec);
  if (ec) stats->output_bytes = 0;

  // The SealedFileMeta constructor publishes the flattened footer as the
  // output file's warm cache entry (or pins it when the cache is off).
  SealedFileRef meta = std::make_shared<SealedFileMeta>(
      final_path, std::make_shared<const FooterIndex>(writer.Locators()),
      cache_);
  *out_meta = std::move(meta);
  return Status::OK();
}

// --- scheduler --------------------------------------------------------------

void CompactionScheduler::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void CompactionScheduler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

void CompactionScheduler::Loop() {
  const auto interval = std::chrono::milliseconds(
      interval_ms_ == 0 ? CompactionConfig::kDefaultCheckIntervalMs
                        : interval_ms_);
  // Exponential backoff after consecutive failing cycles: a persistently
  // failing plan (e.g. a corrupted input the planner keeps picking)
  // re-runs its full merge I/O before failing, so retrying every tick
  // burns disk bandwidth and spams the failure counter indefinitely.
  // Doubles the skipped ticks per failing cycle up to the cap; any
  // successful step or a changed sealed-file count (the plan may differ
  // now) resets it.
  constexpr size_t kMaxBackoffShift = 8;  // <= 256 ticks (64 s at 250 ms)
  size_t failure_streak = 0;
  size_t backoff_ticks = 0;
  size_t files_at_failure = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, interval, [this] { return stop_; });
    if (stop_) break;
    lock.unlock();
    if (backoff_ticks > 0 &&
        engine_->sealed_file_count() == files_at_failure) {
      --backoff_ticks;
      lock.lock();
      continue;
    }
    backoff_ticks = 0;
    // Drain what the planner finds, but re-check for foreground work and
    // shutdown between jobs: flushes preempt maintenance.
    bool failed = false;
    for (;;) {
      if (pool_ != nullptr && pool_->queue_depth() > 0) break;
      bool performed = false;
      // Failures are already counted in the engine's metrics; the
      // scheduler backs off and retries later.
      if (!engine_->CompactStep(&performed).ok()) {
        failed = true;
        break;
      }
      failure_streak = 0;
      if (!performed) break;
      std::lock_guard<std::mutex> check(mu_);
      if (stop_) break;
    }
    if (failed) {
      ++failure_streak;
      files_at_failure = engine_->sealed_file_count();
      backoff_ticks = size_t{1}
                      << std::min(failure_streak, kMaxBackoffShift);
    }
    lock.lock();
  }
}

}  // namespace backsort
