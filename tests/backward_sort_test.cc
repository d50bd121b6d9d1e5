#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/backward_sort.h"
#include "disorder/series_generator.h"
#include "sort/merge_sort.h"

namespace backsort {
namespace {

using Pair = TvPairInt;

std::vector<Pair> FromTimes(std::vector<Timestamp> ts) {
  std::vector<Pair> out(ts.size());
  for (size_t i = 0; i < ts.size(); ++i) {
    out[i] = {ts[i], static_cast<int32_t>(i)};
  }
  return out;
}

TEST(BackwardSort, Figure1Example) {
  // Arrival order of Fig. 1: p5 (10:02) and p9 (10:08) are delayed.
  // Timestamps by arrival: 00 01 03 04 02 05 06 07 09 08 (minutes).
  std::vector<Pair> data = FromTimes({0, 1, 3, 4, 2, 5, 6, 7, 9, 8});
  VectorSortable<int32_t> seq(data);
  BackwardSortOptions options;
  options.fixed_block_size = 5;  // the paper's two blocks of 5
  BackwardSort(seq, options);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i].t, static_cast<Timestamp>(i));
  }
}

TEST(BackwardSort, SortsWithChosenBlockSize) {
  Rng rng(2023);
  AbsNormalDelay delay(1, 20);
  const auto ts = GenerateArrivalOrderedTimestamps(50000, delay, rng);
  std::vector<Pair> data = FromTimes(ts);
  std::vector<Pair> expect = data;
  std::sort(expect.begin(), expect.end(),
            [](const Pair& a, const Pair& b) { return a.t < b.t; });
  VectorSortable<int32_t> seq(data);
  BackwardSortStats stats;
  BackwardSort(seq, BackwardSortOptions{}, &stats);
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(data[i].t, expect[i].t) << i;
  }
  EXPECT_GE(stats.chosen_block_size, 4u);
  EXPECT_GT(stats.block_count, 0u);
}

TEST(BackwardSort, DegeneratesToInsertionAtBlockSizeOne) {
  // L = 1: every "block" is a point; backward merge inserts each point into
  // the sorted suffix — Straight Insertion behavior (Proposition 5).
  std::vector<Pair> data = FromTimes({5, 4, 3, 2, 1, 0});
  VectorSortable<int32_t> seq(data);
  BackwardSortOptions options;
  options.fixed_block_size = 1;
  BackwardSort(seq, options);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i].t, static_cast<Timestamp>(i));
  }
}

TEST(BackwardSort, DegeneratesToQuicksortAtBlockSizeN) {
  Rng rng(5);
  LogNormalDelay delay(4, 2);
  const auto ts = GenerateArrivalOrderedTimestamps(10000, delay, rng);
  std::vector<Pair> data = FromTimes(ts);
  VectorSortable<int32_t> seq(data);
  BackwardSortOptions options;
  options.fixed_block_size = data.size();
  BackwardSortStats stats;
  BackwardSort(seq, options, &stats);
  EXPECT_EQ(stats.block_count, 1u);
  EXPECT_EQ(stats.merges_performed, 0u);
  EXPECT_TRUE(IsSorted(seq));
}

TEST(BackwardSort, ChooseBlockSizeRespectsTheta) {
  // Fully ordered input: the first estimate is alpha = 0 < theta, so L
  // stays at L0.
  std::vector<Pair> data;
  for (int i = 0; i < 4096; ++i) data.push_back({i, i});
  VectorSortable<int32_t> seq(data);
  BackwardSortOptions options;
  BackwardSortStats stats;
  const size_t L = ChooseBlockSize(seq, options, &stats);
  EXPECT_EQ(L, options.initial_block_size);
  EXPECT_EQ(stats.set_block_size_iterations, 1u);
}

TEST(BackwardSort, ChooseBlockSizeGrowsUnderHeavyDisorder) {
  // Random shuffle: alpha ~ 0.5 at every interval, so L doubles to n.
  Rng rng(1);
  std::vector<Pair> data;
  for (int i = 0; i < 4096; ++i) data.push_back({i, i});
  for (size_t i = data.size(); i > 1; --i) {
    std::swap(data[i - 1], data[rng.NextBelow(i)]);
  }
  VectorSortable<int32_t> seq(data);
  BackwardSortOptions options;
  BackwardSortStats stats;
  const size_t L = ChooseBlockSize(seq, options, &stats);
  EXPECT_EQ(L, data.size());
}

TEST(BackwardSort, Proposition3ScanBound) {
  // Total boundary pairs scanned by the set-block-size loop is <= 2 n / L0
  // (Equation 16), for any input.
  Rng rng(77);
  for (double sigma : {0.5, 5.0, 50.0, 500.0}) {
    AbsNormalDelay delay(1, sigma);
    const auto ts = GenerateArrivalOrderedTimestamps(32768, delay, rng);
    std::vector<Pair> data = FromTimes(ts);
    VectorSortable<int32_t> seq(data);
    BackwardSortOptions options;
    BackwardSortStats stats;
    ChooseBlockSize(seq, options, &stats);
    EXPECT_LE(stats.iir_samples_scanned,
              2 * data.size() / options.initial_block_size + 1)
        << "sigma=" << sigma;
  }
}

TEST(BackwardSort, StatsTrackOverlap) {
  Rng rng(11);
  AbsNormalDelay delay(1, 10);
  const auto ts = GenerateArrivalOrderedTimestamps(20000, delay, rng);
  std::vector<Pair> data = FromTimes(ts);
  VectorSortable<int32_t> seq(data);
  BackwardSortOptions options;
  options.fixed_block_size = 64;
  BackwardSortStats stats;
  BackwardSort(seq, options, &stats);
  EXPECT_TRUE(IsSorted(seq));
  EXPECT_GT(stats.merges_performed + stats.merges_skipped, 0u);
  if (stats.merges_performed > 0) {
    EXPECT_GT(stats.total_overlap, 0u);
    EXPECT_GE(stats.max_overlap, 1u);
  }
}

TEST(BackwardSort, BlockSorterVariantsAllSort) {
  Rng rng(13);
  AbsNormalDelay delay(2, 30);
  const auto ts = GenerateArrivalOrderedTimestamps(20000, delay, rng);
  for (auto which : {BackwardSortOptions::BlockSorter::kQuick,
                     BackwardSortOptions::BlockSorter::kInsertion,
                     BackwardSortOptions::BlockSorter::kTim,
                     BackwardSortOptions::BlockSorter::kStable}) {
    std::vector<Pair> data = FromTimes(ts);
    VectorSortable<int32_t> seq(data);
    BackwardSortOptions options;
    options.block_sorter = which;
    BackwardSort(seq, options);
    EXPECT_TRUE(IsSorted(seq));
  }
}

// --- Example 3: backward vs straight merge move counts ----------------------

// Figure 2's construction: three sorted blocks of length M+... where
// timestamps 1 and 3 arrive late and sit at the front of later blocks.
// Straight merge re-moves the first block; backward merge touches only
// overlaps. We verify backward's total moves stay strictly below straight's
// on this construction.
TEST(BackwardMerge, Example3MovesBelowStraightMerge) {
  constexpr int kM = 64;
  // Block 1: 0,2,4..(even), delayed "1" goes to block 2 front; delayed "3"
  // to block 3 front. Build timestamps so each block is internally sorted.
  std::vector<Timestamp> ts;
  for (int i = 0; i < kM; ++i) ts.push_back(4 + 2 * i);        // block 1
  ts.push_back(1);                                             // delayed
  for (int i = 0; i < kM - 1; ++i) ts.push_back(4 + 2 * kM + i);
  ts.push_back(3);                                             // delayed
  for (int i = 0; i < kM - 1; ++i) ts.push_back(4 + 3 * kM + i);

  const size_t L = kM;  // three blocks of M
  // Backward-Sort with fixed L (blocks are pre-sorted, so block sorting
  // costs no moves with the insertion block sorter).
  std::vector<Pair> backward_data = FromTimes(ts);
  VectorSortable<int32_t> backward_seq(backward_data);
  BackwardSortOptions options;
  options.fixed_block_size = L;
  options.block_sorter = BackwardSortOptions::BlockSorter::kInsertion;
  BackwardSort(backward_seq, options);
  EXPECT_TRUE(IsSorted(backward_seq));

  // Straight merge: merge blocks left to right (1+2, then (1+2)+3).
  std::vector<Pair> straight_data = FromTimes(ts);
  VectorSortable<int32_t> straight_seq(straight_data);
  std::vector<Pair> scratch;
  sort_internal::StraightMergeRanges(straight_seq, 0, L, 2 * L, scratch);
  sort_internal::StraightMergeRanges(straight_seq, 0, 2 * L,
                                     straight_data.size(), scratch);
  EXPECT_TRUE(IsSorted(straight_seq));

  EXPECT_LT(backward_seq.counters().moves, straight_seq.counters().moves);
  // The paper's arithmetic: straight ~ 4M + 4 moves, backward ~ 3M + 7.
  // Allow slack for bookkeeping differences but require the ~25% gap shape.
  EXPECT_LT(static_cast<double>(backward_seq.counters().moves),
            0.9 * static_cast<double>(straight_seq.counters().moves));
}

}  // namespace
}  // namespace backsort
