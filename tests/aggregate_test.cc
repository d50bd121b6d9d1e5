#include <cmath>
#include <filesystem>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "disorder/series_generator.h"
#include "engine/aggregate.h"
#include "engine/storage_engine.h"

namespace backsort {
namespace {

class AggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("aggregate_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    EngineOptions opt;
    opt.data_dir = dir_.string();
    opt.sorter = SorterId::kBackward;
    opt.memtable_flush_threshold = 5'000;
    opt.async_flush = false;
    engine_ = std::make_unique<StorageEngine>(opt);
    ASSERT_TRUE(engine_->Open().ok());
  }
  void TearDown() override {
    engine_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::filesystem::path dir_;
  std::unique_ptr<StorageEngine> engine_;
};

TEST_F(AggregateTest, BasicStatistics) {
  // Values = timestamp * 2 over [0, 99].
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine_->Write("s", i, i * 2.0).ok());
  }
  WindowAggregate r;
  ASSERT_TRUE(AggregateRange(*engine_, "s", 10, 19, &r).ok());
  EXPECT_EQ(r.agg.count, 10u);
  EXPECT_DOUBLE_EQ(r.agg.min, 20.0);
  EXPECT_DOUBLE_EQ(r.agg.max, 38.0);
  EXPECT_DOUBLE_EQ(r.agg.sum, (20.0 + 38.0) * 10 / 2);
  EXPECT_DOUBLE_EQ(r.mean, 29.0);
  EXPECT_DOUBLE_EQ(r.agg.first, 20.0);
  EXPECT_DOUBLE_EQ(r.agg.last, 38.0);
  EXPECT_EQ(r.agg.first_time, 10);
  EXPECT_EQ(r.agg.last_time, 19);
}

TEST_F(AggregateTest, FirstLastCorrectUnderDisorder) {
  // Disordered arrival: first/last must follow timestamps, not arrival.
  ASSERT_TRUE(engine_->Write("s", 5, 50.0).ok());
  ASSERT_TRUE(engine_->Write("s", 1, 10.0).ok());
  ASSERT_TRUE(engine_->Write("s", 9, 90.0).ok());
  ASSERT_TRUE(engine_->Write("s", 3, 30.0).ok());
  WindowAggregate r;
  ASSERT_TRUE(AggregateRange(*engine_, "s", 0, 100, &r).ok());
  EXPECT_EQ(r.agg.count, 4u);
  EXPECT_DOUBLE_EQ(r.agg.first, 10.0);
  EXPECT_EQ(r.agg.first_time, 1);
  EXPECT_DOUBLE_EQ(r.agg.last, 90.0);
  EXPECT_EQ(r.agg.last_time, 9);
}

TEST_F(AggregateTest, EmptyRange) {
  ASSERT_TRUE(engine_->Write("s", 5, 1.0).ok());
  WindowAggregate r;
  ASSERT_TRUE(AggregateRange(*engine_, "s", 100, 200, &r).ok());
  EXPECT_EQ(r.agg.count, 0u);
}

TEST_F(AggregateTest, SpansMemoryAndDisk) {
  Rng rng(9);
  AbsNormalDelay delay(1, 10);
  const auto series = GenerateArrivalOrderedSeries<double>(12'000, delay, rng);
  double expect_sum = 0.0;
  for (const auto& p : series) {
    ASSERT_TRUE(engine_->Write("s", p.t, p.v).ok());
    expect_sum += p.v;
  }
  // Threshold 5000: part on disk, part in memory.
  WindowAggregate r;
  ASSERT_TRUE(AggregateRange(*engine_, "s", 0, 12'000, &r).ok());
  EXPECT_EQ(r.agg.count, 12'000u);
  EXPECT_NEAR(r.agg.sum, expect_sum, 1e-6 * std::abs(expect_sum));
  EXPECT_EQ(r.agg.first_time, 0);
  EXPECT_EQ(r.agg.last_time, 11'999);
}

TEST_F(AggregateTest, WindowedTumbling) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine_->Write("s", i, 1.0 * i).ok());
  }
  std::vector<WindowAggregate> windows;
  ASSERT_TRUE(WindowedAggregate(*engine_, "s", 0, 99, 10, &windows).ok());
  ASSERT_EQ(windows.size(), 10u);
  for (size_t w = 0; w < windows.size(); ++w) {
    EXPECT_EQ(windows[w].window_start, static_cast<Timestamp>(w * 10));
    EXPECT_EQ(windows[w].agg.count, 10u);
    EXPECT_DOUBLE_EQ(windows[w].mean, w * 10 + 4.5);
  }
}

TEST_F(AggregateTest, WindowedWithGaps) {
  ASSERT_TRUE(engine_->Write("s", 5, 1.0).ok());
  ASSERT_TRUE(engine_->Write("s", 35, 2.0).ok());
  std::vector<WindowAggregate> windows;
  ASSERT_TRUE(WindowedAggregate(*engine_, "s", 0, 39, 10, &windows).ok());
  ASSERT_EQ(windows.size(), 4u);
  EXPECT_EQ(windows[0].agg.count, 1u);
  EXPECT_EQ(windows[1].agg.count, 0u);  // empty windows still on the grid
  EXPECT_EQ(windows[2].agg.count, 0u);
  EXPECT_EQ(windows[3].agg.count, 1u);
}

TEST_F(AggregateTest, SlidingWindowsOverlap) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine_->Write("s", i, 1.0 * i).ok());
  }
  std::vector<WindowAggregate> windows;
  // width 20, step 10: windows [0,20), [10,30), ..., overlap by half.
  ASSERT_TRUE(SlidingAggregate(*engine_, "s", 0, 90, 20, 10, &windows).ok());
  ASSERT_EQ(windows.size(), 10u);
  for (size_t w = 0; w < windows.size(); ++w) {
    EXPECT_EQ(windows[w].window_start, static_cast<Timestamp>(w * 10));
    // Windows starting at 80 and 90 are clipped by the data end at 99.
    const size_t expect =
        std::min<size_t>(20, 100 - static_cast<size_t>(w) * 10);
    EXPECT_EQ(windows[w].agg.count, expect) << "window " << w;
    if (windows[w].agg.count == 20) {
      EXPECT_DOUBLE_EQ(windows[w].mean, w * 10 + 9.5);
    }
  }
}

TEST_F(AggregateTest, SlidingEqualsTumblingWhenStepEqualsWidth) {
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(engine_->Write("s", i, 2.0 * i).ok());
  }
  std::vector<WindowAggregate> sliding, tumbling;
  ASSERT_TRUE(SlidingAggregate(*engine_, "s", 0, 59, 10, 10, &sliding).ok());
  ASSERT_TRUE(WindowedAggregate(*engine_, "s", 0, 59, 10, &tumbling).ok());
  ASSERT_EQ(sliding.size(), tumbling.size());
  for (size_t i = 0; i < sliding.size(); ++i) {
    EXPECT_EQ(sliding[i].window_start, tumbling[i].window_start);
    EXPECT_EQ(sliding[i].agg.count, tumbling[i].agg.count);
    EXPECT_DOUBLE_EQ(sliding[i].agg.sum, tumbling[i].agg.sum);
  }
}

// Tumbling windows aggregate a query clipped at t_max; sliding windows
// query through the end of the last window. The same grid therefore
// differs in its last window.
TEST_F(AggregateTest, TumblingClipsLastWindowAtTMaxButSlidingDoesNot) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine_->Write("s", i, 1.0 * i).ok());
  }
  std::vector<WindowAggregate> tumbling, sliding;
  ASSERT_TRUE(WindowedAggregate(*engine_, "s", 0, 94, 10, &tumbling).ok());
  ASSERT_TRUE(SlidingAggregate(*engine_, "s", 0, 94, 10, 10, &sliding).ok());
  ASSERT_EQ(tumbling.size(), 10u);
  ASSERT_EQ(sliding.size(), 10u);
  for (size_t w = 0; w + 1 < 10; ++w) {
    EXPECT_EQ(tumbling[w].agg.count, 10u);
    EXPECT_EQ(sliding[w].agg.count, 10u);
  }
  EXPECT_EQ(tumbling[9].window_start, 90);
  EXPECT_EQ(tumbling[9].agg.count, 5u);
  EXPECT_EQ(tumbling[9].agg.last_time, 94);
  EXPECT_EQ(sliding[9].window_start, 90);
  EXPECT_EQ(sliding[9].agg.count, 10u);
  EXPECT_EQ(sliding[9].agg.last_time, 99);
}

// Window ends and starts saturate at the limits of Timestamp instead of
// overflowing; tools/ci.sh runs this suite under UBSan.
TEST_F(AggregateTest, TumblingWindowBoundsSaturateAtTimestampMax) {
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  constexpr Timestamp kQuarter = Timestamp{1} << 62;
  for (const Timestamp t : {Timestamp{0}, Timestamp{5}, kQuarter + 1}) {
    ASSERT_TRUE(engine_->Write("s", t, 1.0).ok());
  }
  std::vector<WindowAggregate> windows;
  ASSERT_TRUE(WindowedAggregate(*engine_, "s", 0, kMax, kQuarter, &windows)
                  .ok());
  ASSERT_EQ(windows.size(), 2u);  // [0, 2^62), [2^62, 2^63)
  EXPECT_EQ(windows[0].agg.count, 2u);
  EXPECT_EQ(windows[1].window_start, kQuarter);
  EXPECT_EQ(windows[1].agg.count, 1u);
}

TEST_F(AggregateTest, SlidingWindowBoundsSaturateAtTimestampMax) {
  constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
  for (Timestamp t = 0; t < 5; ++t) {
    ASSERT_TRUE(engine_->Write("s", t, 1.0).ok());
  }
  std::vector<WindowAggregate> windows;
  ASSERT_TRUE(
      SlidingAggregate(*engine_, "s", 0, kMax - 1, 4, kMax / 2, &windows)
          .ok());
  ASSERT_EQ(windows.size(), 3u);  // starts 0, kMax / 2, kMax - 1
  EXPECT_EQ(windows[0].agg.count, 4u);
  EXPECT_EQ(windows[1].window_start, kMax / 2);
  EXPECT_EQ(windows[2].window_start, kMax - 1);
  EXPECT_EQ(windows[2].agg.count, 0u);
}

TEST_F(AggregateTest, WindowBoundsSafeNearTimestampMin) {
  constexpr Timestamp kMin = std::numeric_limits<Timestamp>::min();
  std::vector<WindowAggregate> windows;
  ASSERT_TRUE(
      WindowedAggregate(*engine_, "s", kMin, kMin + 5, 10, &windows).ok());
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].window_start, kMin);
  EXPECT_EQ(windows[0].agg.count, 0u);
  ASSERT_TRUE(
      SlidingAggregate(*engine_, "s", kMin, kMin + 5, 4, 10, &windows).ok());
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].window_start, kMin);
}

TEST_F(AggregateTest, SlidingRejectsBadArgs) {
  std::vector<WindowAggregate> windows;
  EXPECT_TRUE(SlidingAggregate(*engine_, "s", 0, 10, 0, 1, &windows)
                  .IsInvalidArgument());
  EXPECT_TRUE(SlidingAggregate(*engine_, "s", 0, 10, 5, 0, &windows)
                  .IsInvalidArgument());
  EXPECT_TRUE(SlidingAggregate(*engine_, "s", 10, 0, 5, 1, &windows)
                  .IsInvalidArgument());
}

TEST_F(AggregateTest, WindowedRejectsBadArgs) {
  std::vector<WindowAggregate> windows;
  EXPECT_TRUE(WindowedAggregate(*engine_, "s", 0, 10, 0, &windows)
                  .IsInvalidArgument());
  EXPECT_TRUE(WindowedAggregate(*engine_, "s", 10, 0, 5, &windows)
                  .IsInvalidArgument());
}

TEST_F(AggregateTest, FastPathAgreesWithQueryPath) {
  // Ordered ingestion, fully flushed: the statistics pushdown applies and
  // must agree exactly with the Query-based reference.
  for (int i = 0; i < 30'000; ++i) {
    ASSERT_TRUE(engine_->Write("s", i, std::sin(i * 0.01) * 10).ok());
  }
  ASSERT_TRUE(engine_->FlushAll().ok());
  TsFileReader::RangeStats fast;
  bool used_fast = false;
  ASSERT_TRUE(
      engine_->AggregateFast("s", 2'000, 27'000, &fast, &used_fast).ok());
  EXPECT_TRUE(used_fast);
  WindowAggregate slow;
  ASSERT_TRUE(AggregateRange(*engine_, "s", 2'000, 27'000, &slow).ok());
  EXPECT_EQ(fast.count, slow.agg.count);
  EXPECT_DOUBLE_EQ(fast.min, slow.agg.min);
  EXPECT_DOUBLE_EQ(fast.max, slow.agg.max);
  EXPECT_NEAR(fast.sum, slow.agg.sum, 1e-6 * std::abs(slow.agg.sum));
  EXPECT_EQ(fast.first_time, slow.agg.first_time);
  EXPECT_DOUBLE_EQ(fast.first, slow.agg.first);
  EXPECT_EQ(fast.last_time, slow.agg.last_time);
  EXPECT_DOUBLE_EQ(fast.last, slow.agg.last);
}

// Tier 1 answers a chunk from its footer only when the range covers the
// chunk's whole [min_t, max_t]; one timestamp short, the chunk is a stats
// miss answered page by page — with the answer a fold over Query gives.
// Integer values keep every sum exact, so the two tiers agree bit for bit.
TEST_F(AggregateTest, FastPathHitsFooterOnlyOverTheWholeCompactedChunk) {
  for (int i = 0; i < 12'000; ++i) {
    const double v = i % 97 == 0 ? std::nan("") : 1.0 * (i % 100);
    ASSERT_TRUE(engine_->Write("s", i, v).ok());
  }
  ASSERT_TRUE(engine_->FlushAll().ok());
  ASSERT_TRUE(engine_->Compact().ok());
  ASSERT_EQ(engine_->sealed_file_count(), 1u);

  auto counters = [&] {
    const auto snap = engine_->GetMetricsSnapshot();
    return std::make_pair(snap.agg_stats_hits, snap.agg_stats_misses);
  };
  for (const Timestamp t_max : {Timestamp{11'999}, Timestamp{11'998}}) {
    const auto before = counters();
    TsFileReader::RangeStats fast;
    bool used_fast = false;
    ASSERT_TRUE(
        engine_->AggregateFast("s", 0, t_max, &fast, &used_fast).ok());
    EXPECT_TRUE(used_fast);
    const auto after = counters();
    const bool whole = t_max == 11'999;
    EXPECT_EQ(after.first - before.first, whole ? 1u : 0u) << t_max;
    EXPECT_EQ(after.second - before.second, whole ? 0u : 1u) << t_max;

    std::vector<TvPairDouble> points;
    ASSERT_TRUE(engine_->Query("s", 0, t_max, &points).ok());
    TsFileReader::RangeStats want;
    for (const TvPairDouble& p : points) want.Fold(p.t, p.v);
    EXPECT_EQ(fast.count, want.count);
    EXPECT_EQ(fast.sum, want.sum);
    EXPECT_EQ(fast.min, want.min);
    EXPECT_EQ(fast.max, want.max);
    EXPECT_EQ(fast.first_time, want.first_time);
    EXPECT_TRUE(std::isnan(fast.first) && std::isnan(want.first));
    EXPECT_EQ(fast.last_time, want.last_time);
    EXPECT_EQ(fast.last, want.last);
  }
}

// A timestamp written twice into one sequence memtable is flushed once,
// with its last value: the footer (tier 1) and page (tier 2) statistics
// count the point Query returns, not both writes.
TEST_F(AggregateTest, FastPathCountsARewriteInOneMemtableOnce) {
  EngineOptions opt;
  opt.data_dir = (dir_ / "defaults").string();
  opt.async_flush = false;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  ASSERT_TRUE(engine.Write("s", 5, 1.0).ok());
  ASSERT_TRUE(engine.Write("s", 6, 10.0).ok());
  ASSERT_TRUE(engine.Write("s", 5, 2.0).ok());
  ASSERT_TRUE(engine.FlushAll().ok());

  std::vector<TvPairDouble> points;
  ASSERT_TRUE(engine.Query("s", 0, 10, &points).ok());
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].v, 2.0);

  auto hits = [&engine] { return engine.GetMetricsSnapshot().agg_stats_hits; };
  const uint64_t hits_before = hits();
  TsFileReader::RangeStats whole;
  bool used_fast = false;
  ASSERT_TRUE(engine.AggregateFast("s", 0, 10, &whole, &used_fast).ok());
  EXPECT_TRUE(used_fast);
  EXPECT_EQ(hits() - hits_before, 1u);  // tier 1: footer statistics
  EXPECT_EQ(whole.count, 2u);
  EXPECT_EQ(whole.sum, 12.0);
  EXPECT_EQ(whole.min, 2.0);
  EXPECT_EQ(whole.first, 2.0);

  TsFileReader::RangeStats one;
  ASSERT_TRUE(engine.AggregateFast("s", 5, 5, &one, &used_fast).ok());
  EXPECT_TRUE(used_fast);
  EXPECT_EQ(hits() - hits_before, 1u);  // tier 2: a page decode
  EXPECT_EQ(one.count, 1u);
  EXPECT_EQ(one.sum, 2.0);
}

TEST_F(AggregateTest, FastPathRefusedWhenUnsequenceDataExists) {
  for (int i = 0; i < 12'000; ++i) {
    ASSERT_TRUE(engine_->Write("s", i, 1.0 * i).ok());
  }
  ASSERT_TRUE(engine_->FlushAll().ok());
  // Rewrite an old timestamp: lands in unsequence, shadows the disk value.
  ASSERT_TRUE(engine_->Write("s", 5'000, -999.0).ok());
  ASSERT_TRUE(engine_->FlushAll().ok());
  TsFileReader::RangeStats stats;
  bool used_fast = true;
  ASSERT_TRUE(
      engine_->AggregateFast("s", 0, 12'000, &stats, &used_fast).ok());
  EXPECT_FALSE(used_fast);  // guard must refuse the pushdown
  EXPECT_EQ(stats.count, 12'000u);  // dedup: rewrite shadows the original
  EXPECT_DOUBLE_EQ(stats.min, -999.0);
}

TEST_F(AggregateTest, FastPathRefusedWithInMemoryPoints) {
  for (int i = 0; i < 1'000; ++i) {
    ASSERT_TRUE(engine_->Write("s", i, 1.0).ok());
  }
  // Not flushed: points live in the working memtable.
  TsFileReader::RangeStats stats;
  bool used_fast = true;
  ASSERT_TRUE(engine_->AggregateFast("s", 0, 999, &stats, &used_fast).ok());
  EXPECT_FALSE(used_fast);
  EXPECT_EQ(stats.count, 1'000u);
}

TEST_F(AggregateTest, EmptyAndOutOfRangeAggregatesAreZeroWithoutScanning) {
  for (int i = 100; i < 200; ++i) {
    ASSERT_TRUE(engine_->Write("s", i, 1.0 * i).ok());
  }
  ASSERT_TRUE(engine_->FlushAll().ok());

  // Degenerate range (t_max < t_min): well-defined zero-count answer.
  TsFileReader::RangeStats stats;
  stats.count = 123;  // sentinel: must be reset
  bool used_fast = false;
  ASSERT_TRUE(engine_->AggregateFast("s", 50, 10, &stats, &used_fast).ok());
  EXPECT_TRUE(used_fast);
  EXPECT_EQ(stats.count, 0u);
  EXPECT_DOUBLE_EQ(stats.sum, 0.0);

  // Range entirely before the first point: every file is pruned, nothing
  // is scanned, count == 0.
  stats.count = 123;
  ASSERT_TRUE(engine_->AggregateFast("s", 0, 99, &stats, &used_fast).ok());
  EXPECT_TRUE(used_fast);
  EXPECT_EQ(stats.count, 0u);

  // Range entirely after the last point: same contract.
  stats.count = 123;
  ASSERT_TRUE(
      engine_->AggregateFast("s", 200, 1'000, &stats, &used_fast).ok());
  EXPECT_TRUE(used_fast);
  EXPECT_EQ(stats.count, 0u);

  // Unknown sensor: zero-count success, not an error.
  stats.count = 123;
  ASSERT_TRUE(
      engine_->AggregateFast("nosuch", 0, 1'000, &stats, &used_fast).ok());
  EXPECT_EQ(stats.count, 0u);
}

TEST_F(AggregateTest, SinglePointRange) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine_->Write("s", i, 3.0 * i).ok());
  }
  ASSERT_TRUE(engine_->FlushAll().ok());
  // [42, 42] covers exactly one point: all statistics collapse onto it.
  TsFileReader::RangeStats stats;
  bool used_fast = false;
  ASSERT_TRUE(engine_->AggregateFast("s", 42, 42, &stats, &used_fast).ok());
  EXPECT_TRUE(used_fast);
  EXPECT_EQ(stats.count, 1u);
  EXPECT_DOUBLE_EQ(stats.min, 126.0);
  EXPECT_DOUBLE_EQ(stats.max, 126.0);
  EXPECT_DOUBLE_EQ(stats.sum, 126.0);
  EXPECT_DOUBLE_EQ(stats.first, 126.0);
  EXPECT_DOUBLE_EQ(stats.last, 126.0);
  EXPECT_EQ(stats.first_time, 42);
  EXPECT_EQ(stats.last_time, 42);
}

TEST_F(AggregateTest, NaNExcludedFromMinMaxSumButCounted) {
  // The documented NaN contract (DESIGN.md §16): NaN is counted and
  // eligible as first/last, but never contributes to min/max/sum — on
  // every tier, so the statistics plan and the decode fallback agree.
  const double nan = std::nan("");
  ASSERT_TRUE(engine_->Write("s", 0, nan).ok());
  ASSERT_TRUE(engine_->Write("s", 1, 5.0).ok());
  ASSERT_TRUE(engine_->Write("s", 2, 3.0).ok());
  ASSERT_TRUE(engine_->Write("s", 3, nan).ok());
  ASSERT_TRUE(engine_->FlushAll().ok());

  TsFileReader::RangeStats stats;
  bool used_fast = false;
  // Full coverage: answered from footer statistics (tier 1).
  ASSERT_TRUE(engine_->AggregateFast("s", 0, 10, &stats, &used_fast).ok());
  EXPECT_TRUE(used_fast);
  EXPECT_EQ(stats.count, 4u);
  EXPECT_DOUBLE_EQ(stats.min, 3.0);
  EXPECT_DOUBLE_EQ(stats.max, 5.0);
  EXPECT_DOUBLE_EQ(stats.sum, 8.0);
  EXPECT_TRUE(std::isnan(stats.first)) << "first is the raw value";
  EXPECT_TRUE(std::isnan(stats.last));

  // Partial coverage: the page-decode tier applies the same contract.
  ASSERT_TRUE(engine_->AggregateFast("s", 1, 3, &stats, &used_fast).ok());
  EXPECT_TRUE(used_fast);
  EXPECT_EQ(stats.count, 3u);
  EXPECT_DOUBLE_EQ(stats.min, 3.0);
  EXPECT_DOUBLE_EQ(stats.max, 5.0);
  EXPECT_DOUBLE_EQ(stats.sum, 8.0);
  EXPECT_DOUBLE_EQ(stats.first, 5.0);
  EXPECT_TRUE(std::isnan(stats.last));

  // AggregateRange (the Query-based operator) agrees too.
  WindowAggregate r;
  ASSERT_TRUE(AggregateRange(*engine_, "s", 0, 10, &r).ok());
  EXPECT_EQ(r.agg.count, 4u);
  EXPECT_DOUBLE_EQ(r.agg.min, 3.0);
  EXPECT_DOUBLE_EQ(r.agg.max, 5.0);
  EXPECT_DOUBLE_EQ(r.agg.sum, 8.0);
  EXPECT_DOUBLE_EQ(r.mean, 4.0);  // mean over the non-NaN values
}

TEST_F(AggregateTest, AllNaNRangeReportsInfinitySentinels) {
  const double nan = std::nan("");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine_->Write("s", i, nan).ok());
  }
  ASSERT_TRUE(engine_->FlushAll().ok());
  TsFileReader::RangeStats stats;
  bool used_fast = false;
  ASSERT_TRUE(engine_->AggregateFast("s", 0, 10, &stats, &used_fast).ok());
  EXPECT_TRUE(used_fast);
  EXPECT_EQ(stats.count, 5u);
  EXPECT_TRUE(std::isinf(stats.min) && stats.min > 0) << "all-NaN min";
  EXPECT_TRUE(std::isinf(stats.max) && stats.max < 0) << "all-NaN max";
  EXPECT_DOUBLE_EQ(stats.sum, 0.0);
}

TEST_F(AggregateTest, DisorderedMeanMatchesOrderedGroundTruth) {
  // The paper's Section VI-E point: aggregation over the engine (which
  // sorts) equals aggregation over the ideally ordered series even when
  // ingestion was heavily disordered.
  Rng rng(10);
  LogNormalDelay delay(1, 2);
  const auto series = GenerateArrivalOrderedSeries<double>(8'000, delay, rng);
  for (const auto& p : series) {
    ASSERT_TRUE(engine_->Write("s", p.t, p.v).ok());
  }
  std::vector<WindowAggregate> windows;
  ASSERT_TRUE(WindowedAggregate(*engine_, "s", 0, 7'999, 100, &windows).ok());
  ASSERT_EQ(windows.size(), 80u);
  for (const auto& w : windows) {
    ASSERT_EQ(w.agg.count, 100u);
    double expect = 0.0;
    for (Timestamp t = w.window_start; t < w.window_start + 100; ++t) {
      expect += SignalValueAt(static_cast<size_t>(t));
    }
    expect /= 100.0;
    ASSERT_NEAR(w.mean, expect, 1e-9) << "window " << w.window_start;
  }
}

}  // namespace
}  // namespace backsort
