// Cross-feature lifecycle tests: interactions of compaction, recovery,
// last cache, dedup and the aggregation fast path across engine restarts.

#include <filesystem>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "disorder/series_generator.h"
#include "engine/aggregate.h"
#include "engine/storage_engine.h"

namespace backsort {
namespace {

class EngineLifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("engine_lifecycle_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  EngineOptions Options() {
    EngineOptions opt;
    opt.data_dir = dir_.string();
    opt.sorter = SorterId::kTim;
    opt.memtable_flush_threshold = 2'000;
    opt.async_flush = false;
    return opt;
  }

  std::filesystem::path dir_;
};

TEST_F(EngineLifecycleTest, RestartAfterCompaction) {
  Rng rng(1);
  AbsNormalDelay delay(1, 10);
  const auto series = GenerateArrivalOrderedSeries<double>(10'000, delay, rng);
  {
    StorageEngine engine(Options());
    ASSERT_TRUE(engine.Open().ok());
    for (const auto& p : series) {
      ASSERT_TRUE(engine.Write("s", p.t, p.v).ok());
    }
    ASSERT_TRUE(engine.FlushAll().ok());
    ASSERT_TRUE(engine.Compact().ok());
    EXPECT_EQ(engine.sealed_file_count(), 1u);
  }
  StorageEngine engine(Options());
  ASSERT_TRUE(engine.Open().ok());
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("s", 0, 10'000, &out).ok());
  ASSERT_EQ(out.size(), 10'000u);
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i].t, static_cast<Timestamp>(i));
  }
  // The compacted file id must not collide with new flushes.
  for (int i = 0; i < 5'000; ++i) {
    ASSERT_TRUE(engine.Write("s", 20'000 + i, 1.0).ok());
  }
  ASSERT_TRUE(engine.FlushAll().ok());
  ASSERT_TRUE(engine.Query("s", 0, 30'000, &out).ok());
  EXPECT_EQ(out.size(), 15'000u);
}

TEST_F(EngineLifecycleTest, DedupSurvivesCompactionAndRestart) {
  {
    StorageEngine engine(Options());
    ASSERT_TRUE(engine.Open().ok());
    for (int i = 0; i < 3'000; ++i) {
      ASSERT_TRUE(engine.Write("s", i, 1.0).ok());
    }
    ASSERT_TRUE(engine.FlushAll().ok());
    // Rewrite a flushed timestamp (goes to unsequence) twice.
    ASSERT_TRUE(engine.Write("s", 100, 2.0).ok());
    ASSERT_TRUE(engine.Write("s", 100, 3.0).ok());
    ASSERT_TRUE(engine.FlushAll().ok());
    ASSERT_TRUE(engine.Compact().ok());
  }
  StorageEngine engine(Options());
  ASSERT_TRUE(engine.Open().ok());
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("s", 100, 100, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].v, 3.0);  // latest rewrite survives everything
  // After compaction removed the unsequence files, the fast path applies
  // again and still sees the rewritten value.
  TsFileReader::RangeStats stats;
  bool used_fast = false;
  ASSERT_TRUE(engine.AggregateFast("s", 100, 100, &stats, &used_fast).ok());
  EXPECT_TRUE(used_fast);
  EXPECT_EQ(stats.count, 1u);
  EXPECT_DOUBLE_EQ(stats.min, 3.0);
}

// Recovery rebuilds the last cache and the watermark from the sealed
// chunks. Run with both footer formats: BSTF1 files carry no value
// statistics, so recovery must get the last point by decoding.
TEST_F(EngineLifecycleTest, LastCacheAfterCompactionRestart) {
  for (const bool footer_stats : {true, false}) {
    SCOPED_TRACE(footer_stats ? "BSTF2" : "BSTF1");
    std::filesystem::remove_all(dir_);
    EngineOptions opt = Options();
    opt.footer_stats = footer_stats;
    {
      StorageEngine engine(opt);
      ASSERT_TRUE(engine.Open().ok());
      for (int i = 0; i < 5'000; ++i) {
        ASSERT_TRUE(engine.Write("s", i, i * 1.0).ok());
      }
      ASSERT_TRUE(engine.FlushAll().ok());
      ASSERT_TRUE(engine.Compact().ok());
    }
    StorageEngine engine(opt);
    ASSERT_TRUE(engine.Open().ok());
    TvPairDouble last;
    ASSERT_TRUE(engine.GetLatest("s", &last).ok());
    EXPECT_EQ(last.t, 4'999);
    EXPECT_DOUBLE_EQ(last.v, 4'999.0);

    // A write below the rebuilt watermark is out of order: it must seal
    // into an unsequence file, and the newer value must win on read.
    ASSERT_TRUE(engine.Write("s", 100, -1.0).ok());
    ASSERT_TRUE(engine.FlushAll().ok());
    size_t unseq_files = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir_)) {
      if (e.path().filename().string().rfind("unseq-", 0) == 0) ++unseq_files;
    }
    EXPECT_EQ(unseq_files, 1u);
    std::vector<TvPairDouble> out;
    ASSERT_TRUE(engine.Query("s", 100, 100, &out).ok());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_DOUBLE_EQ(out[0].v, -1.0);
  }
}

TEST_F(EngineLifecycleTest, WindowedAggregationAfterRestart) {
  Rng rng(2);
  LogNormalDelay delay(1, 1);
  const auto series = GenerateArrivalOrderedSeries<double>(6'000, delay, rng);
  {
    StorageEngine engine(Options());
    ASSERT_TRUE(engine.Open().ok());
    for (const auto& p : series) {
      ASSERT_TRUE(engine.Write("s", p.t, p.v).ok());
    }
    // No FlushAll: most recent data recovers via WAL.
  }
  StorageEngine engine(Options());
  ASSERT_TRUE(engine.Open().ok());
  std::vector<WindowAggregate> windows;
  ASSERT_TRUE(WindowedAggregate(engine, "s", 0, 5'999, 1'000, &windows).ok());
  ASSERT_EQ(windows.size(), 6u);
  for (const auto& w : windows) {
    EXPECT_EQ(w.agg.count, 1'000u);
  }
}

TEST_F(EngineLifecycleTest, DoubleRestartIsStable) {
  for (int round = 0; round < 3; ++round) {
    StorageEngine engine(Options());
    ASSERT_TRUE(engine.Open().ok());
    for (int i = 0; i < 1'000; ++i) {
      ASSERT_TRUE(
          engine.Write("s", round * 1'000 + i, round * 1'000.0 + i).ok());
    }
    // Alternate between flushed and WAL-only shutdowns.
    if (round % 2 == 0) {
      ASSERT_TRUE(engine.FlushAll().ok());
    }
  }
  StorageEngine engine(Options());
  ASSERT_TRUE(engine.Open().ok());
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("s", 0, 10'000, &out).ok());
  ASSERT_EQ(out.size(), 3'000u);
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i].t, static_cast<Timestamp>(i));
    ASSERT_DOUBLE_EQ(out[i].v, static_cast<double>(i));
  }
}

}  // namespace
}  // namespace backsort
