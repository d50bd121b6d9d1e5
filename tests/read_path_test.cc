// Integration tests for the sealed read path (engine/engine_shard.cc):
// lock-free query snapshots (writers progress while a query reads),
// footer-based file pruning, open descriptors bounded by reads in flight
// rather than sealed files, the shared chunk cache (repeat queries hit
// cached page directories, compaction invalidates), clean error handling
// on corrupted sealed files, bit-identical results against a last-write-
// wins model with the cache on and off, and page-granular reads of large
// compacted chunks:
// differential checks against TsFileReader and a brute-force fold, read
// amplification counters, and seeded mutation of real chunk bytes.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/lww_merge.h"
#include "engine/storage_engine.h"
#include "tsfile/tsfile.h"

namespace backsort {
namespace {

class ReadPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("read_path_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::remove_all(dir_.string() + "_b", ec);
  }

  EngineOptions Options() {
    EngineOptions opt;
    opt.data_dir = dir_.string();
    opt.shard_count = 1;
    opt.flush_workers = 1;
    // Large threshold: files are sealed only by explicit FlushAll, so each
    // test controls its file layout exactly.
    opt.memtable_flush_threshold = 1'000'000;
    return opt;
  }

  /// Writes [t_begin, t_end) with v = value_base + t and flushes, sealing
  /// exactly one sequence file for the sensor.
  static void WriteFileRange(StorageEngine* engine, const std::string& sensor,
                             Timestamp t_begin, Timestamp t_end,
                             double value_base) {
    for (Timestamp t = t_begin; t < t_end; ++t) {
      ASSERT_TRUE(
          engine->Write(sensor, t, value_base + static_cast<double>(t)).ok());
    }
    ASSERT_TRUE(engine->FlushAll().ok());
  }

  std::filesystem::path dir_;
};

// --- File-level time pruning ----------------------------------------------

TEST_F(ReadPathTest, PruningSkipsNonOverlappingFiles) {
  StorageEngine engine(Options());
  ASSERT_TRUE(engine.Open().ok());
  // Three sealed files with disjoint time ranges.
  WriteFileRange(&engine, "s", 0, 1000, 0.0);
  WriteFileRange(&engine, "s", 1000, 2000, 0.0);
  WriteFileRange(&engine, "s", 2000, 3000, 0.0);
  ASSERT_EQ(engine.sealed_file_count(), 3u);

  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("s", 1200, 1400, &out).ok());
  ASSERT_EQ(out.size(), 201u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].t, static_cast<Timestamp>(1200 + i));
    EXPECT_DOUBLE_EQ(out[i].v, static_cast<double>(out[i].t));
  }
  const EngineMetricsSnapshot snap = engine.GetMetricsSnapshot();
  EXPECT_EQ(snap.query_files_pruned, 2u);
  EXPECT_EQ(snap.query_files_opened, 1u);
  EXPECT_EQ(snap.queries, 1u);
}

TEST_F(ReadPathTest, PruningSkipsFilesWithoutTheSensor) {
  StorageEngine engine(Options());
  ASSERT_TRUE(engine.Open().ok());
  WriteFileRange(&engine, "a", 0, 500, 0.0);
  WriteFileRange(&engine, "b", 0, 500, 1000.0);
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("a", 0, 10'000, &out).ok());
  EXPECT_EQ(out.size(), 500u);
  const EngineMetricsSnapshot snap = engine.GetMetricsSnapshot();
  // The file holding only "b" is pruned without being opened.
  EXPECT_EQ(snap.query_files_pruned, 1u);
  EXPECT_EQ(snap.query_files_opened, 1u);
}

TEST_F(ReadPathTest, RecoveryRebuildsPruningRanges) {
  {
    StorageEngine engine(Options());
    ASSERT_TRUE(engine.Open().ok());
    WriteFileRange(&engine, "s", 0, 1000, 0.0);
    WriteFileRange(&engine, "s", 5000, 6000, 0.0);
  }
  // Reopen: per-sensor [min_t, max_t] must come back from the footers.
  StorageEngine engine(Options());
  ASSERT_TRUE(engine.Open().ok());
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("s", 5100, 5200, &out).ok());
  EXPECT_EQ(out.size(), 101u);
  const EngineMetricsSnapshot snap = engine.GetMetricsSnapshot();
  EXPECT_EQ(snap.query_files_pruned, 1u);
  EXPECT_EQ(snap.query_files_opened, 1u);
}

// --- Chunk cache ----------------------------------------------------------

TEST_F(ReadPathTest, CacheServesRepeatedQuery) {
  EngineOptions opt = Options();
  opt.chunk_cache_bytes = 8u << 20;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  WriteFileRange(&engine, "s", 0, 2000, 0.0);

  std::vector<TvPairDouble> first;
  ASSERT_TRUE(engine.Query("s", 100, 900, &first).ok());
  const ChunkCacheStats after_first = engine.GetChunkCacheStats();
  std::vector<TvPairDouble> second;
  ASSERT_TRUE(engine.Query("s", 100, 900, &second).ok());
  const ChunkCacheStats after_second = engine.GetChunkCacheStats();

  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].t, second[i].t);
    EXPECT_DOUBLE_EQ(first[i].v, second[i].v);
  }
  // The repeat was served from cache: hits increased, misses did not.
  EXPECT_GT(after_second.hits, after_first.hits);
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_GT(after_second.entries, 0u);
}

TEST_F(ReadPathTest, ManySealedFilesStayUnderTheFdLimit) {
  // Compaction is off, so every flush leaves one more sealed file. Reads
  // must not keep a descriptor per file they have touched: with the soft
  // fd limit a few dozen above what is open now, querying and aggregating
  // each of 100 files in turn must still succeed.
  constexpr int kFiles = 100;
  constexpr Timestamp kPerFile = 10;
  EngineOptions opt = Options();
  opt.chunk_cache_bytes = 8u << 20;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  for (int f = 0; f < kFiles; ++f) {
    WriteFileRange(&engine, "s", f * kPerFile, (f + 1) * kPerFile, 0.0);
  }
  ASSERT_EQ(engine.GetMetricsSnapshot().sealed_files,
            static_cast<size_t>(kFiles));

  struct rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const auto open_now = static_cast<rlim_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/fd"),
      std::filesystem::directory_iterator{}));
  struct RestoreLimit {
    rlimit saved;
    ~RestoreLimit() { ::setrlimit(RLIMIT_NOFILE, &saved); }
  } restore{saved};
  rlimit low = saved;
  low.rlim_cur = std::min<rlim_t>(saved.rlim_cur, open_now + 24);
  ASSERT_LT(low.rlim_cur, open_now + kFiles);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);

  for (int f = 0; f < kFiles; ++f) {
    const Timestamp lo = f * kPerFile + 2;
    const Timestamp hi = f * kPerFile + 6;
    std::vector<TvPairDouble> out;
    ASSERT_TRUE(engine.Query("s", lo, hi, &out).ok()) << "file " << f;
    ASSERT_EQ(out.size(), 5u);
    EXPECT_EQ(out.front().t, lo);
    TsFileReader::RangeStats stats;
    ASSERT_TRUE(engine.AggregateFast("s", lo, hi, &stats).ok())
        << "file " << f;
    EXPECT_EQ(stats.count, 5u);
    EXPECT_DOUBLE_EQ(stats.sum, static_cast<double>(5 * lo + 10));
  }
  // Once more over everything, with all files in one query.
  std::vector<TvPairDouble> all;
  ASSERT_TRUE(engine.Query("s", 0, kFiles * kPerFile, &all).ok());
  EXPECT_EQ(all.size(), static_cast<size_t>(kFiles * kPerFile));
}

TEST_F(ReadPathTest, CompactionInvalidatesCache) {
  EngineOptions opt = Options();
  opt.chunk_cache_bytes = 8u << 20;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  WriteFileRange(&engine, "s", 0, 100, 0.0);
  // Unsequence rewrite of t=50 shadows the sealed value (LWW).
  ASSERT_TRUE(engine.Write("s", 50, -1.0).ok());
  ASSERT_TRUE(engine.FlushAll().ok());

  // Warm the cache on the pre-compaction files.
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("s", 0, 100, &out).ok());
  ASSERT_EQ(out.size(), 100u);
  EXPECT_DOUBLE_EQ(out[50].v, -1.0);

  ASSERT_TRUE(engine.Compact().ok());
  ASSERT_EQ(engine.sealed_file_count(), 1u);

  // Post-compaction queries must not see stale cached chunks of retired
  // files; results stay identical.
  ASSERT_TRUE(engine.Query("s", 0, 100, &out).ok());
  ASSERT_EQ(out.size(), 100u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].t, static_cast<Timestamp>(i));
    EXPECT_DOUBLE_EQ(out[i].v, i == 50 ? -1.0 : static_cast<double>(i));
  }
}

// --- Cache on and off against a last-write-wins model --------------------

TEST_F(ReadPathTest, DisabledCacheAndPruningGiveIdenticalResults) {
  // File pruning is always on. The cached and the cache-off engine must
  // each answer exactly like a test-local last-write-wins map fed the same
  // writes. Every value is a small integer, so sums are exact whatever
  // order the engine folds them in and the aggregates compare bit for bit.
  EngineOptions cached_opt = Options();
  EngineOptions uncached_opt = Options();
  uncached_opt.data_dir = dir_.string() + "_b";
  uncached_opt.chunk_cache_bytes = 0;

  StorageEngine cached(cached_opt);
  StorageEngine uncached(uncached_opt);
  ASSERT_TRUE(cached.Open().ok());
  ASSERT_TRUE(uncached.Open().ok());
  EXPECT_GT(cached.chunk_cache_capacity(), 0u);
  EXPECT_EQ(uncached.chunk_cache_capacity(), 0u);
  StorageEngine* const engines[] = {&cached, &uncached};

  std::map<Timestamp, double> model;
  auto write = [&](Timestamp t, double v) {
    for (StorageEngine* engine : engines) {
      ASSERT_TRUE(engine->Write("s", t, v).ok());
    }
    model[t] = v;
  };
  auto flush = [&] {
    for (StorageEngine* engine : engines) {
      ASSERT_TRUE(engine->FlushAll().ok());
    }
  };
  // Disordered workload with duplicate-timestamp rewrites: several sealed
  // files plus unflushed working points.
  for (Timestamp t = 0; t < 1000; ++t) write(t, static_cast<double>(t));
  flush();
  for (Timestamp t = 2000; t < 3000; ++t) write(t, static_cast<double>(t));
  flush();
  for (Timestamp t = 500; t < 600; ++t) write(t, 7000.0 + t);  // rewrites
  flush();
  for (Timestamp t = 2950; t < 3050; ++t) write(t, 9000.0 + t);  // in-memory

  const struct {
    Timestamp lo, hi;
  } ranges[] = {{0, 5000}, {400, 700}, {550, 2500}, {2900, 3100}, {1500, 1600}};
  for (const auto& r : ranges) {
    std::vector<TvPairDouble> want;
    RangeStats want_stats;  // an empty range reads all zeros
    for (auto it = model.lower_bound(r.lo);
         it != model.end() && it->first <= r.hi; ++it) {
      const Timestamp t = it->first;
      const double v = it->second;
      want.push_back({t, v});
      if (want_stats.count == 0) {
        want_stats.min = want_stats.max = v;
        want_stats.first_time = t;
        want_stats.first = v;
      }
      ++want_stats.count;
      want_stats.sum += v;
      want_stats.min = std::min(want_stats.min, v);
      want_stats.max = std::max(want_stats.max, v);
      want_stats.last_time = t;
      want_stats.last = v;
    }
    for (StorageEngine* engine : engines) {
      const char* name = engine == &cached ? "cached" : "uncached";
      // Twice per engine, so the cached engine's second pass reads from
      // the cache.
      for (int pass = 0; pass < 2; ++pass) {
        std::vector<TvPairDouble> got;
        ASSERT_TRUE(engine->Query("s", r.lo, r.hi, &got).ok());
        ASSERT_EQ(got.size(), want.size())
            << name << " [" << r.lo << "," << r.hi << "]";
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].t, want[i].t) << name;
          // Bit-identical, not approximately equal.
          ASSERT_EQ(got[i].v, want[i].v) << name << " t=" << got[i].t;
        }
      }
      RangeStats got;
      ASSERT_TRUE(engine->AggregateFast("s", r.lo, r.hi, &got).ok());
      EXPECT_EQ(got.count, want_stats.count) << name << " " << r.lo;
      EXPECT_EQ(got.sum, want_stats.sum) << name << " " << r.lo;
      EXPECT_EQ(got.min, want_stats.min) << name << " " << r.lo;
      EXPECT_EQ(got.max, want_stats.max) << name << " " << r.lo;
      EXPECT_EQ(got.first_time, want_stats.first_time) << name << " " << r.lo;
      EXPECT_EQ(got.first, want_stats.first) << name << " " << r.lo;
      EXPECT_EQ(got.last_time, want_stats.last_time) << name << " " << r.lo;
      EXPECT_EQ(got.last, want_stats.last) << name << " " << r.lo;
    }
  }
  EXPECT_GT(cached.GetChunkCacheStats().hits, 0u);
  EXPECT_EQ(uncached.GetChunkCacheStats().hits, 0u);
}

// --- Error handling on corrupted sealed files -----------------------------

TEST_F(ReadPathTest, CorruptedFileFailsCleanlyAndEngineStaysUsable) {
  EngineOptions opt = Options();
  opt.chunk_cache_bytes = 0;  // force every query to re-open the file
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  WriteFileRange(&engine, "bad", 0, 500, 0.0);
  WriteFileRange(&engine, "good", 0, 500, 100.0);

  // Truncate the first sealed file (the one holding "bad") mid-chunk.
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".bstf") files.push_back(entry.path());
  }
  ASSERT_EQ(files.size(), 2u);
  std::sort(files.begin(), files.end());
  std::filesystem::resize_file(files[0], 16);

  // Query of the corrupted sensor: error status, no partial output.
  std::vector<TvPairDouble> out = {{999, 999.0}};  // sentinel content
  Status st = engine.Query("bad", 0, 1000, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(out.empty()) << "partial result leaked on error";

  // The engine is still fully usable: the other sensor's file is intact
  // and (pruning by per-sensor ranges) never touches the corrupted file.
  ASSERT_TRUE(engine.Query("good", 0, 1000, &out).ok());
  ASSERT_EQ(out.size(), 500u);
  EXPECT_DOUBLE_EQ(out[0].v, 100.0);
  // Writes and flushes keep working; fresh data on a new sensor reads back.
  WriteFileRange(&engine, "fresh", 0, 10, 0.0);
  ASSERT_TRUE(engine.Query("fresh", 0, 10, &out).ok());
  EXPECT_EQ(out.size(), 10u);
}

TEST_F(ReadPathTest, CorruptedFileFailsAggregateCleanly) {
  EngineOptions opt = Options();
  opt.chunk_cache_bytes = 0;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  WriteFileRange(&engine, "s", 0, 500, 0.0);
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".bstf") {
      std::filesystem::resize_file(entry.path(), 16);
    }
  }
  // A range that only partially covers the chunk forces the page-level
  // decode tier, which must read the (truncated) file and fail cleanly.
  TsFileReader::RangeStats stats;
  stats.count = 123;
  bool used_fast = true;
  Status st = engine.AggregateFast("s", 10, 1000, &stats, &used_fast);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(stats.count, 0u) << "partial aggregate leaked on error";

  // A range fully covering the chunk is answered from the footer
  // statistics registered at seal time — by design no chunk byte is read,
  // so the truncation is invisible and the sealed data's aggregate comes
  // back intact.
  st = engine.AggregateFast("s", 0, 1000, &stats, &used_fast);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(used_fast);
  EXPECT_EQ(stats.count, 500u);
}

// --- Lock-free snapshot: writers progress during a slow query -------------

TEST_F(ReadPathTest, WritesProgressDuringSlowQuery) {
  // The query thread parks inside the read stage (after the snapshot is
  // taken and the shard lock released). If Query still held the shard
  // lock there, the main thread's Write/GetLatest on the SAME shard would
  // deadlock this test rather than finish.
  std::mutex mu;
  std::condition_variable cv;
  bool query_parked = false;
  bool release_query = false;
  bool arm_hook = true;  // only the first Query parks

  EngineOptions opt = Options();
  opt.query_read_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!arm_hook) return;
    arm_hook = false;
    query_parked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release_query; });
  };
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  WriteFileRange(&engine, "s", 0, 1000, 0.0);

  std::vector<TvPairDouble> slow_result;
  Status slow_status;
  std::thread query_thread([&] {
    slow_status = engine.Query("s", 0, 1'000'000, &slow_result);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return query_parked; });
  }

  // The query is mid-read. Same-shard writes and reads must progress.
  for (Timestamp t = 5000; t < 5100; ++t) {
    ASSERT_TRUE(engine.Write("s", t, -1.0).ok());
  }
  TvPairDouble last{};
  ASSERT_TRUE(engine.GetLatest("s", &last).ok());
  EXPECT_EQ(last.t, Timestamp{5099});

  {
    std::lock_guard<std::mutex> lock(mu);
    release_query = true;
  }
  cv.notify_all();
  query_thread.join();

  // The slow query answers from its snapshot: the concurrent writes are
  // not in its result.
  ASSERT_TRUE(slow_status.ok());
  ASSERT_EQ(slow_result.size(), 1000u);
  EXPECT_EQ(slow_result.back().t, Timestamp{999});

  // A fresh query sees everything.
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("s", 0, 1'000'000, &out).ok());
  EXPECT_EQ(out.size(), 1100u);
}

// --- Page-granular reads of large compacted chunks -------------------------

/// One sensor's expected contents after last-write-wins: sorted times and
/// their surviving values.
struct SensorPoints {
  std::vector<Timestamp> ts;
  std::vector<double> vs;
};

/// Brute-force NaN-contract fold over the expected points [a, b).
TsFileReader::RangeStats BruteFold(const SensorPoints& pts, size_t a,
                                   size_t b) {
  TsFileReader::RangeStats r;
  for (size_t i = a; i < b; ++i) {
    const double v = pts.vs[i];
    if (r.count == 0) {
      r.first = v;
      r.first_time = pts.ts[i];
      r.min = std::numeric_limits<double>::infinity();
      r.max = -std::numeric_limits<double>::infinity();
    }
    ++r.count;
    r.last = v;
    r.last_time = pts.ts[i];
    if (!std::isnan(v)) {
      r.min = std::min(r.min, v);
      r.max = std::max(r.max, v);
      r.sum += v;
    }
  }
  return r;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

class PageReadTest : public ReadPathTest {
 protected:
  static constexpr size_t kPoints = 104'000;  // 102 pages of 1024
  static constexpr size_t kPageSize = 1024;
  static constexpr Timestamp kGap = 20'000;   // mid-series hole, in ticks

  static std::string SensorName(int s) { return "p" + std::to_string(s); }

  /// Point i's timestamp: stride 2, with a kGap hole after the midpoint
  /// (inside page 50) so some ranges fall between points of one page.
  static Timestamp TimeOf(size_t i) {
    return static_cast<Timestamp>(2 * i) + (i >= kPoints / 2 ? kGap : 0);
  }

  /// Ingests `sensors` sensors out of order — the newer three quarters
  /// first, then the older quarter (unsequence), then rewrites of every
  /// 1000th point (unsequence, last write wins) — and compacts the lot into
  /// one file: one chunk of >= 100 pages per sensor. Every 97th value is
  /// NaN and page 30 is NaN throughout. Returns the compacted file's path.
  std::string SeedCompacted(StorageEngine* engine, int sensors,
                            std::vector<SensorPoints>* expected) {
    expected->assign(static_cast<size_t>(sensors), SensorPoints{});
    for (int s = 0; s < sensors; ++s) {
      std::map<Timestamp, double> model;
      auto write = [&](size_t begin, size_t end, bool rewrite) {
        std::vector<TvPairDouble> batch;
        for (size_t i = begin; i < end; ++i) {
          if (rewrite && i % 1000 != 0) continue;
          double v = std::sin(static_cast<double>(i) * 1e-3) * 100.0 +
                     static_cast<double>((i * 7 + static_cast<size_t>(s)) % 13);
          if (rewrite) v = -v - 1.0;
          if (i % 97 == 0 || (i >= 30 * kPageSize && i < 31 * kPageSize)) {
            v = std::nan("");
          }
          batch.push_back({TimeOf(i), v});
          model[TimeOf(i)] = v;
          if (batch.size() == 4096) {
            ASSERT_TRUE(engine->WriteBatch(SensorName(s), batch).ok());
            batch.clear();
          }
        }
        if (!batch.empty()) {
          ASSERT_TRUE(engine->WriteBatch(SensorName(s), batch).ok());
        }
      };
      write(kPoints / 4, kPoints, false);
      EXPECT_TRUE(engine->FlushAll().ok());
      write(0, kPoints / 4, false);
      EXPECT_TRUE(engine->FlushAll().ok());
      write(kPoints / 2, kPoints, true);
      EXPECT_TRUE(engine->FlushAll().ok());
      SensorPoints& pts = (*expected)[static_cast<size_t>(s)];
      for (const auto& [t, v] : model) {
        pts.ts.push_back(t);
        pts.vs.push_back(v);
      }
    }
    EXPECT_TRUE(engine->Compact().ok());
    EXPECT_EQ(engine->sealed_file_count(), 1u);
    std::string path;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().extension() == ".bstf") path = entry.path().string();
    }
    return path;
  }

  /// The probe ranges: seeded random ranges, ranges starting or ending
  /// exactly on page boundaries, single points, gaps between points (inside
  /// a page and between pages), out-of-range and full-range probes.
  static std::vector<std::pair<Timestamp, Timestamp>> Ranges(
      const SensorPoints& pts, uint64_t seed) {
    std::vector<std::pair<Timestamp, Timestamp>> out;
    const std::vector<Timestamp>& ts = pts.ts;
    const Timestamp lo = ts.front();
    const Timestamp hi = ts.back();
    Rng rng(seed);
    auto any_t = [&] {
      return lo - 10 + static_cast<Timestamp>(
                           rng.NextBelow(static_cast<uint64_t>(hi - lo + 20)));
    };
    for (int i = 0; i < 20; ++i) {
      Timestamp a = any_t();
      Timestamp b = any_t();
      if (a > b) std::swap(a, b);
      out.push_back({a, b});
    }
    for (int i = 0; i < 10; ++i) {
      // Narrow ranges: a few points to a few pages.
      const Timestamp a = any_t();
      out.push_back({a, a + static_cast<Timestamp>(rng.NextBelow(6000))});
    }
    const size_t pages = (ts.size() + kPageSize - 1) / kPageSize;
    for (int i = 0; i < 8; ++i) {
      const size_t k = rng.NextBelow(pages - 1);
      const size_t j = k + rng.NextBelow(pages - k);
      const Timestamp first_k = ts[k * kPageSize];
      const Timestamp last_k = ts[k * kPageSize + kPageSize - 1];
      const Timestamp last_j = ts[std::min((j + 1) * kPageSize, ts.size()) - 1];
      out.push_back({first_k, last_j});        // exactly pages k..j
      out.push_back({first_k, any_t()});       // starts on a boundary
      out.push_back({any_t(), last_k});        // ends on a boundary
      out.push_back({last_k, last_k + 2});     // straddles k | k+1
      out.push_back({last_k + 1, last_k + 1}); // gap between pages
      out.push_back({first_k, first_k});       // single point
    }
    const Timestamp mid_gap = TimeOf(kPoints / 2 - 1) + 1;
    out.push_back({mid_gap, mid_gap + kGap - 4});  // gap inside a page
    out.push_back({mid_gap - 1, mid_gap + kGap});  // just its edges
    out.push_back({hi + 1, hi + 100});             // after the data
    out.push_back({lo - 100, lo - 1});             // before the data
    out.push_back({lo, hi});                       // everything
    return out;
  }

  /// Query and AggregateFast against TsFileReader::QueryRangeF64 over the
  /// compacted file and the brute-force fold, for every probe range.
  void CheckAgainstOracles(StorageEngine* engine, const std::string& path,
                           const std::vector<SensorPoints>& expected) {
    TsFileReader reader(path);
    ASSERT_TRUE(reader.Open().ok());
    for (size_t s = 0; s < expected.size(); ++s) {
      const std::string sensor = SensorName(static_cast<int>(s));
      const ChunkLocator& locator = reader.Locators().at(sensor);
      ASSERT_GE((locator.points + kPageSize - 1) / kPageSize, 100u);
      for (const auto& [lo, hi] : Ranges(expected[s], 7 + s)) {
        const std::string where = sensor + " [" + std::to_string(lo) + ", " +
                                  std::to_string(hi) + "]";
        std::vector<TvPairDouble> got;
        ASSERT_TRUE(engine->Query(sensor, lo, hi, &got).ok()) << where;
        std::vector<Timestamp> want_ts;
        std::vector<double> want_vs;
        ASSERT_TRUE(
            reader.QueryRangeF64(sensor, lo, hi, &want_ts, &want_vs).ok());
        ASSERT_EQ(got.size(), want_ts.size()) << where;
        size_t same = 0;
        while (same < got.size() && got[same].t == want_ts[same] &&
               SameBits(got[same].v, want_vs[same])) {
          ++same;
        }
        ASSERT_EQ(same, got.size()) << where << ": first mismatch";
        // And against the written model, which shares no code with either.
        const std::vector<Timestamp>& model_ts = expected[s].ts;
        const size_t a = static_cast<size_t>(
            std::lower_bound(model_ts.begin(), model_ts.end(), lo) -
            model_ts.begin());
        const size_t b = std::max(
            a, static_cast<size_t>(
                   std::upper_bound(model_ts.begin(), model_ts.end(), hi) -
                   model_ts.begin()));  // inverted ranges are empty
        ASSERT_EQ(got.size(), b - a) << where;
        same = 0;
        while (same < got.size() && got[same].t == model_ts[a + same] &&
               SameBits(got[same].v, expected[s].vs[a + same])) {
          ++same;
        }
        ASSERT_EQ(same, got.size()) << where << ": first mismatch";

        TsFileReader::RangeStats agg;
        bool fast = false;
        ASSERT_TRUE(engine->AggregateFast(sensor, lo, hi, &agg, &fast).ok())
            << where;
        EXPECT_TRUE(fast) << where;
        const TsFileReader::RangeStats ref = BruteFold(expected[s], a, b);
        ASSERT_EQ(agg.count, ref.count) << where;
        if (ref.count == 0) continue;
        EXPECT_EQ(agg.min, ref.min) << where;
        EXPECT_EQ(agg.max, ref.max) << where;
        // The page-stats fold reassociates the FP sum across pages.
        EXPECT_NEAR(agg.sum, ref.sum, 1e-9 * (1.0 + std::abs(ref.sum)))
            << where;
        EXPECT_EQ(agg.first_time, ref.first_time) << where;
        EXPECT_EQ(agg.last_time, ref.last_time) << where;
        EXPECT_TRUE(SameBits(agg.first, ref.first)) << where;
        EXPECT_TRUE(SameBits(agg.last, ref.last)) << where;
      }
    }
  }

  void RunDifferential(size_t cache_bytes, bool footer_stats) {
    EngineOptions opt = Options();
    opt.chunk_cache_bytes = cache_bytes;
    opt.footer_stats = footer_stats;
    StorageEngine engine(opt);
    ASSERT_TRUE(engine.Open().ok());
    std::vector<SensorPoints> expected;
    const std::string path = SeedCompacted(&engine, 2, &expected);
    ASSERT_FALSE(path.empty());
    {
      std::ifstream in(path, std::ios::binary);
      char magic[5] = {};
      in.read(magic, 5);
      EXPECT_EQ(std::string(magic, 5), footer_stats ? "BSTF2" : "BSTF1");
    }
    CheckAgainstOracles(&engine, path, expected);
    // A second pass runs on the cached directories and must not change a
    // single answer.
    if (cache_bytes > 0) CheckAgainstOracles(&engine, path, expected);
  }
};

TEST_F(PageReadTest, DifferentialDefaultCache) {
  RunDifferential(EngineOptions::kDefaultChunkCacheBytes, true);
}

TEST_F(PageReadTest, DifferentialCacheDisabled) {
  RunDifferential(0, true);
}

TEST_F(PageReadTest, DifferentialLegacyBstf1) {
  RunDifferential(EngineOptions::kDefaultChunkCacheBytes, false);
}

TEST_F(PageReadTest, NarrowRangesDecodeOnlyBoundaryPages) {
  EngineOptions opt = Options();
  opt.chunk_cache_bytes = EngineOptions::kDefaultChunkCacheBytes;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  constexpr int kSensors = 4;
  std::vector<SensorPoints> expected;
  const std::string path = SeedCompacted(&engine, kSensors, &expected);
  ASSERT_FALSE(path.empty());
  const uint64_t file_bytes = std::filesystem::file_size(path);

  // First touch of every sensor derives (and caches) its page directory.
  std::vector<TvPairDouble> out;
  for (int s = 0; s < kSensors; ++s) {
    ASSERT_TRUE(engine.Query(SensorName(s), 0, 0, &out).ok());
  }
  const ChunkCacheStats warm = engine.GetChunkCacheStats();
  EXPECT_EQ(warm.misses, static_cast<uint64_t>(kSensors));

  // A 0.1% range (104 points) decodes at most its two boundary pages and
  // reads a few KB, not the chunk.
  const SensorPoints& pts = expected[1];
  const size_t at = pts.ts.size() / 3;
  const Timestamp lo = pts.ts[at];
  const Timestamp hi = pts.ts[at + pts.ts.size() / 1000];
  EngineMetricsSnapshot before = engine.GetMetricsSnapshot();
  ASSERT_TRUE(engine.Query(SensorName(1), lo, hi, &out).ok());
  EXPECT_EQ(out.size(), pts.ts.size() / 1000 + 1);
  EngineMetricsSnapshot after = engine.GetMetricsSnapshot();
  EXPECT_GE(after.sealed_pages_decoded - before.sealed_pages_decoded, 1u);
  EXPECT_LE(after.sealed_pages_decoded - before.sealed_pages_decoded, 2u);
  // Each chunk has >= 100 pages, so two pages are < 3% of one chunk.
  EXPECT_LT(after.sealed_bytes_read - before.sealed_bytes_read,
            3 * file_bytes / kSensors / 100);

  // A 10% aggregate: the merge's stats sink folds the interior pages from
  // their headers, and only the two boundary pages are read and decoded.
  before = after;
  TsFileReader::RangeStats agg;
  ASSERT_TRUE(engine
                  .AggregateFast(SensorName(1), lo + 1,
                                 pts.ts[at + pts.ts.size() / 10], &agg)
                  .ok());
  after = engine.GetMetricsSnapshot();
  EXPECT_EQ(after.sealed_pages_decoded - before.sealed_pages_decoded, 2u);
  EXPECT_GE(after.agg_pages_folded - before.agg_pages_folded,
            pts.ts.size() / 10 / kPageSize - 2);
  EXPECT_LT(after.sealed_bytes_read - before.sealed_bytes_read,
            3 * file_bytes / kSensors / 100);

  // After every sensor was queried, the cache holds only the directories
  // and the file's footer: far under one byte per point, where a decoded
  // chunk would cost 16.
  const ChunkCacheStats stats = engine.GetChunkCacheStats();
  EXPECT_EQ(stats.entries, static_cast<uint64_t>(kSensors) + 1);
  EXPECT_LT(stats.bytes, kSensors * kPoints / 8);
  EXPECT_EQ(stats.misses, warm.misses) << "directories were re-derived";
  EXPECT_GT(stats.hits, warm.hits);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST_F(PageReadTest, MutatedChunkBytesFailCleanly) {
  StorageEngine engine(Options());
  ASSERT_TRUE(engine.Open().ok());
  std::vector<SensorPoints> expected;
  const std::string path = SeedCompacted(&engine, 1, &expected);
  ASSERT_FALSE(path.empty());
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  const std::string sensor = SensorName(0);
  const ChunkLocator locator = reader.Locators().at(sensor);
  std::vector<uint8_t> chunk(static_cast<size_t>(locator.length));
  {
    std::ifstream in(path, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(locator.offset));
    in.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(chunk.size()));
    ASSERT_TRUE(in.good());
  }
  PageDirectory clean;
  ASSERT_TRUE(
      ParsePageDirectory(chunk.data(), chunk.size(), sensor, locator, &clean)
          .ok());
  ASSERT_GE(clean.pages.size(), 100u);

  // Targeted edits, each caught by the header walk itself.
  auto parse = [&](const std::vector<uint8_t>& bytes,
                   const ChunkLocator& loc) {
    PageDirectory directory;
    return ParsePageDirectory(bytes.data(), bytes.size(), sensor, loc,
                              &directory);
  };
  ChunkLocator more = locator;
  ++more.points;
  EXPECT_TRUE(parse(chunk, more).IsCorruption()) << "page counts sum short";
  ChunkLocator fewer = locator;
  --fewer.points;
  EXPECT_TRUE(parse(chunk, fewer).IsCorruption()) << "page counts overflow";
  ChunkLocator int_type = locator;
  int_type.raw_type = static_cast<uint8_t>(DataType::kInt64);
  EXPECT_TRUE(parse(chunk, int_type).IsCorruption()) << "header type";
  {
    // Pages are self-contained, so swapping the first two keeps every
    // buffer in bounds but makes page times go backwards.
    const PageEntry& p0 = clean.pages[0];
    const PageEntry& p1 = clean.pages[1];
    const auto at = [&](uint64_t offset) {
      return chunk.begin() + static_cast<std::ptrdiff_t>(offset);
    };
    std::vector<uint8_t> swapped(chunk.begin(), at(p0.offset));
    swapped.insert(swapped.end(), at(p1.offset), at(p1.offset + p1.length));
    swapped.insert(swapped.end(), at(p0.offset), at(p0.offset + p0.length));
    swapped.insert(swapped.end(), at(p1.offset + p1.length), chunk.end());
    ASSERT_EQ(swapped.size(), chunk.size());
    EXPECT_TRUE(parse(swapped, locator).IsCorruption()) << "times backwards";
    // Cut inside page 0's value buffer: its size points past the chunk.
    const std::vector<uint8_t> cut(chunk.begin(), at(p0.value_offset + 1));
    EXPECT_TRUE(parse(cut, locator).IsCorruption()) << "buffer overrun";
  }

  // Each round flips a few random bytes — biased toward page headers, where
  // the directory's checks live — or truncates the chunk, then parses and,
  // if the directory still validates, reads everything through it. Under
  // ASan an out-of-bounds read fails the run; here a malformed chunk must
  // come back as an error status, never a crash.
  Rng rng(20231);
  size_t rejected = 0;
  for (int round = 0; round < 300; ++round) {
    std::vector<uint8_t> bad(chunk);
    if (round % 10 == 9) {
      bad.resize(rng.NextBelow(bad.size()));
    } else {
      const int flips = 1 + static_cast<int>(rng.NextBelow(4));
      for (int f = 0; f < flips; ++f) {
        const PageEntry& page = clean.pages[rng.NextBelow(clean.pages.size())];
        const size_t pos =
            rng.NextBelow(2) == 0
                ? static_cast<size_t>(page.offset) + rng.NextBelow(48)
                : rng.NextBelow(bad.size());
        bad[std::min(pos, bad.size() - 1)] ^=
            static_cast<uint8_t>(1 + rng.NextBelow(255));
      }
    }
    // An exactly sized heap copy, so any overread is visible to ASan.
    std::vector<uint8_t> image(bad.begin(), bad.end());
    auto directory = std::make_shared<PageDirectory>();
    Status st = ParsePageDirectory(image.data(), image.size(), sensor,
                                   locator, directory.get());
    if (st.ok()) {
      PageReader pages(image.data(), directory);
      std::vector<TvPairDouble> out;
      st = pages.Query(std::numeric_limits<Timestamp>::min(),
                       std::numeric_limits<Timestamp>::max(), &out);
      // The stats sink over a fresh reader of the same bytes: interior
      // pages fold from their headers, boundary pages are decoded.
      PageReader fold_pages(image.data(), directory);
      std::vector<MergeCursor> cursors;
      cursors.emplace_back(&fold_pages, locator.min_t + 1, locator.max_t - 1);
      TsFileReader::RangeStats agg;
      FoldTally tally;
      const Status agg_st = MergeStats(cursors, locator.min_t + 1,
                                       locator.max_t - 1, &agg, &tally);
      if (st.ok()) st = agg_st;
      if (st.ok()) {
        EXPECT_LE(out.size(), locator.points);
      }
    }
    if (!st.ok()) {
      ++rejected;
      EXPECT_TRUE(st.IsCorruption())
          << "round " << round << ": " << st.ToString();
    }
  }
  // Most mutations land in a header or a buffer and must be caught.
  EXPECT_GT(rejected, 150u);
}

}  // namespace
}  // namespace backsort
