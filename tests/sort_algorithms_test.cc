#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/sorter_registry.h"
#include "disorder/series_generator.h"
#include "tvlist/tv_list.h"

namespace backsort {
namespace {

using Pair = TvPairInt;

std::vector<Pair> MakePairs(const std::vector<Timestamp>& ts) {
  std::vector<Pair> out(ts.size());
  for (size_t i = 0; i < ts.size(); ++i) {
    out[i] = {ts[i], static_cast<int32_t>(ts[i] * 3 + 1)};
  }
  return out;
}

void ExpectSortedPermutation(const std::vector<Pair>& original,
                             const std::vector<Pair>& sorted) {
  ASSERT_EQ(original.size(), sorted.size());
  // Sorted by time.
  for (size_t i = 1; i < sorted.size(); ++i) {
    ASSERT_LE(sorted[i - 1].t, sorted[i].t) << "at index " << i;
  }
  // Same multiset: compare against std::sort ground truth.
  std::vector<Pair> expect = original;
  std::sort(expect.begin(), expect.end(),
            [](const Pair& a, const Pair& b) { return a.t < b.t; });
  for (size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(expect[i].t, sorted[i].t) << "at index " << i;
    // Timestamps are distinct in generated workloads, so values must bind.
    ASSERT_EQ(expect[i].v, sorted[i].v) << "value binding lost at " << i;
  }
}

// --- parameterized sweep: every sorter x several disorder profiles --------

struct SweepCase {
  SorterId sorter;
  const char* delay_kind;
  double p1, p2;
  size_t n;
};

class SorterSweepTest : public ::testing::TestWithParam<SweepCase> {};

std::unique_ptr<DelayDistribution> MakeDelay(const SweepCase& c) {
  const std::string kind = c.delay_kind;
  if (kind == "absnormal") return std::make_unique<AbsNormalDelay>(c.p1, c.p2);
  if (kind == "lognormal") return std::make_unique<LogNormalDelay>(c.p1, c.p2);
  if (kind == "exponential")
    return std::make_unique<ExponentialDelay>(c.p1);
  if (kind == "uniform")
    return std::make_unique<DiscreteUniformDelay>(
        static_cast<int64_t>(c.p1), static_cast<int64_t>(c.p2));
  return std::make_unique<ConstantDelay>(0.0);
}

TEST_P(SorterSweepTest, SortsArrivalStream) {
  const SweepCase c = GetParam();
  Rng rng(0xc0ffee + c.n);
  auto delay = MakeDelay(c);
  const auto ts = GenerateArrivalOrderedTimestamps(c.n, *delay, rng);
  std::vector<Pair> data = MakePairs(ts);
  const std::vector<Pair> original = data;
  VectorSortable<int32_t> seq(data);
  SortWith(c.sorter, seq);
  ExpectSortedPermutation(original, data);
}

std::vector<SweepCase> MakeSweepCases() {
  std::vector<SweepCase> cases;
  for (SorterId s : AllSorters()) {
    // Insertion sort is quadratic; keep its inputs small.
    const size_t big = s == SorterId::kInsertion ? 2000 : 20000;
    cases.push_back({s, "constant", 0, 0, big});          // fully ordered
    cases.push_back({s, "absnormal", 0, 1, big});
    cases.push_back({s, "absnormal", 1, 10, big});
    cases.push_back({s, "absnormal", 4, 100, big});
    cases.push_back({s, "lognormal", 1, 1, big});
    cases.push_back({s, "lognormal", 4, 2, big});
    cases.push_back({s, "exponential", 2, 0, big});
    cases.push_back({s, "uniform", 0, 3, big});
    cases.push_back({s, "uniform", 0, 500, big});         // heavy shuffle
    cases.push_back({s, "absnormal", 0, 1, 1});
    cases.push_back({s, "absnormal", 0, 1, 2});
    cases.push_back({s, "absnormal", 0, 1, 3});
    cases.push_back({s, "absnormal", 0, 1, 33});          // > one TVList array
  }
  return cases;
}

std::string SweepName(const ::testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  std::string name = SorterName(c.sorter) + "_" + c.delay_kind + "_" +
                     std::to_string(static_cast<int>(c.p1)) + "_" +
                     std::to_string(static_cast<int>(c.p2)) + "_n" +
                     std::to_string(c.n);
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllSorters, SorterSweepTest,
                         ::testing::ValuesIn(MakeSweepCases()), SweepName);

// --- targeted cases ---------------------------------------------------------

TEST(SorterEdgeCases, EmptyInput) {
  for (SorterId s : AllSorters()) {
    std::vector<Pair> data;
    VectorSortable<int32_t> seq(data);
    SortWith(s, seq);
    EXPECT_TRUE(data.empty()) << SorterName(s);
  }
}

TEST(SorterEdgeCases, AllEqualTimestamps) {
  for (SorterId s : AllSorters()) {
    std::vector<Pair> data(1000, Pair{7, 1});
    for (size_t i = 0; i < data.size(); ++i) {
      data[i].v = static_cast<int32_t>(i);
    }
    VectorSortable<int32_t> seq(data);
    SortWith(s, seq);
    ASSERT_EQ(data.size(), 1000u) << SorterName(s);
    for (const Pair& p : data) EXPECT_EQ(p.t, 7);
  }
}

TEST(SorterEdgeCases, ReverseSorted) {
  for (SorterId s : AllSorters()) {
    std::vector<Pair> data;
    for (int i = 999; i >= 0; --i) {
      data.push_back({i, i});
    }
    const std::vector<Pair> original = data;
    VectorSortable<int32_t> seq(data);
    SortWith(s, seq);
    ExpectSortedPermutation(original, data);
  }
}

TEST(SorterEdgeCases, ManyDuplicateTimestamps) {
  Rng rng(99);
  for (SorterId s : AllSorters()) {
    std::vector<Pair> data;
    for (int i = 0; i < 5000; ++i) {
      data.push_back({static_cast<Timestamp>(rng.NextBelow(10)),
                      static_cast<int32_t>(i)});
    }
    VectorSortable<int32_t> seq(data);
    SortWith(s, seq);
    for (size_t i = 1; i < data.size(); ++i) {
      ASSERT_LE(data[i - 1].t, data[i].t) << SorterName(s);
    }
  }
}

TEST(SorterStability, TimsortAndMergeAreStable) {
  // Stable sorters must keep equal-timestamp points in arrival order.
  Rng rng(123);
  for (SorterId s : {SorterId::kTim, SorterId::kMerge, SorterId::kInsertion}) {
    std::vector<Pair> data;
    for (int i = 0; i < 4000; ++i) {
      data.push_back({static_cast<Timestamp>(rng.NextBelow(50)),
                      static_cast<int32_t>(i)});
    }
    VectorSortable<int32_t> seq(data);
    SortWith(s, seq);
    for (size_t i = 1; i < data.size(); ++i) {
      ASSERT_LE(data[i - 1].t, data[i].t);
      if (data[i - 1].t == data[i].t) {
        ASSERT_LT(data[i - 1].v, data[i].v)
            << SorterName(s) << " broke stability at " << i;
      }
    }
  }
}

// Arrival-ordered points where every timestamp occurs twice: AbsNormal(1,
// sigma) arrivals with t halved, value = arrival index.
std::vector<Pair> TiedArrivals(size_t n, double sigma, uint64_t seed) {
  Rng rng(seed);
  AbsNormalDelay delay(1, sigma);
  const auto ts = GenerateArrivalOrderedTimestamps(n, delay, rng);
  std::vector<Pair> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = {ts[i] / 2, static_cast<int32_t>(i)};
  }
  return out;
}

// Pairs of equal neighbours whose arrival order was reversed.
size_t TieInversions(const std::vector<Pair>& sorted) {
  size_t inversions = 0;
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted[i - 1].t, sorted[i].t);
    if (sorted[i - 1].t == sorted[i].t && sorted[i - 1].v > sorted[i].v) {
      ++inversions;
    }
  }
  return inversions;
}

TEST(SorterStability, BackwardStableBlocksKeepTieOrder) {
  // Both the flat buffer the engine sorts and the TVList the figure benches
  // sort, across sigma values whose chosen block sizes span one insertion
  // run to many merged ones, so both the block merge and the backward
  // merge run.
  BackwardSortOptions options;
  options.block_sorter = BackwardSortOptions::BlockSorter::kStable;
  for (double sigma : {10.0, 50.0, 1000.0}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      const std::vector<Pair> arrivals = TiedArrivals(20'000, sigma, seed);

      std::vector<Pair> flat = arrivals;
      VectorSortable<int32_t> flat_seq(flat);
      BackwardSortStats stats;
      BackwardSort(flat_seq, options, &stats);
      EXPECT_EQ(TieInversions(flat), 0u) << "sigma=" << sigma;
      EXPECT_GT(stats.merges_performed, 0u) << "sigma=" << sigma;
      if (sigma >= 1000.0) {
        EXPECT_GT(stats.chosen_block_size, core_internal::kStableRun);
      }

      IntTVList list;
      for (const Pair& p : arrivals) list.Put(p.t, p.v);
      TVListSortable<int32_t> list_seq(list);
      BackwardSort(list_seq, options);
      std::vector<Pair> from_list(list.size());
      for (size_t i = 0; i < list.size(); ++i) {
        from_list[i] = {list.TimeAt(i), list.ValueAt(i)};
      }
      EXPECT_EQ(from_list, flat) << "sigma=" << sigma;
    }
  }
}

TEST(SorterStability, KeepsTieOrderIsExact) {
  // KeepsTieOrder decides whether the engine needs its tie check, so it
  // must hold where claimed; where it is not claimed the sorter really
  // does reorder ties on this input, or the check would be dead weight.
  for (SorterId s : AllSorters()) {
    for (auto block : {BackwardSortOptions::BlockSorter::kQuick,
                       BackwardSortOptions::BlockSorter::kStable}) {
      if (s != SorterId::kBackward &&
          block != BackwardSortOptions::BlockSorter::kQuick) {
        continue;
      }
      BackwardSortOptions options;
      options.block_sorter = block;
      size_t inversions = 0;
      for (uint64_t seed = 1; seed <= 20; ++seed) {
        std::vector<Pair> data = TiedArrivals(5'000, 10.0, seed);
        VectorSortable<int32_t> seq(data);
        SortWith(s, seq, options);
        inversions += TieInversions(data);
      }
      if (KeepsTieOrder(s, options)) {
        EXPECT_EQ(inversions, 0u) << SorterName(s);
      } else {
        EXPECT_GT(inversions, 0u) << SorterName(s);
      }
    }
  }
}

TEST(SorterCounters, MovesAreCounted) {
  Rng rng(7);
  AbsNormalDelay delay(1, 10);
  const auto ts = GenerateArrivalOrderedTimestamps(5000, delay, rng);
  for (SorterId s : AllSorters()) {
    std::vector<Pair> data = MakePairs(ts);
    VectorSortable<int32_t> seq(data);
    SortWith(s, seq);
    if (s == SorterId::kRadix) {
      // The one non-comparison sort: key comparisons are exactly zero.
      EXPECT_EQ(seq.counters().comparisons, 0u) << SorterName(s);
    } else {
      EXPECT_GT(seq.counters().comparisons, 0u) << SorterName(s);
    }
    EXPECT_GT(seq.counters().moves, 0u) << SorterName(s);
  }
}

TEST(SorterCounters, SortedInputNeedsNoMovesForAdaptiveSorts) {
  std::vector<Pair> data;
  for (int i = 0; i < 10000; ++i) data.push_back({i, i});
  for (SorterId s : {SorterId::kTim, SorterId::kInsertion, SorterId::kMerge,
                     SorterId::kBackward}) {
    std::vector<Pair> copy = data;
    VectorSortable<int32_t> seq(copy);
    SortWith(s, seq);
    EXPECT_EQ(seq.counters().moves, 0u)
        << SorterName(s) << " moved points in an already sorted array";
  }
}

}  // namespace
}  // namespace backsort
