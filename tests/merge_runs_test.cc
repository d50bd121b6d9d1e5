#include <map>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/lww_merge.h"

namespace backsort {
namespace {

// The read merge's points sink over in-memory runs. A run's list position
// is its last-write-wins priority.

std::vector<TvPairDouble> Points(
    std::initializer_list<std::pair<Timestamp, double>> init) {
  std::vector<TvPairDouble> out;
  for (const auto& [t, v] : init) out.push_back({t, v});
  return out;
}

/// Merges `runs` (lowest priority first) into `out`.
void MergeRuns(const std::vector<std::vector<TvPairDouble>>& runs,
               std::vector<TvPairDouble>* out) {
  std::vector<MergeCursor> cursors;
  for (const std::vector<TvPairDouble>& run : runs) {
    cursors.emplace_back(std::span<const TvPairDouble>(run));
  }
  ASSERT_TRUE(MergePoints(cursors, out).ok());
}

TEST(MergeRuns, EmptyInputs) {
  std::vector<TvPairDouble> out = Points({{1, 1.0}});
  MergeRuns({}, &out);
  EXPECT_TRUE(out.empty());
  MergeRuns({{}, {}}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(MergeRuns, SingleRunPassThrough) {
  std::vector<TvPairDouble> out;
  MergeRuns({Points({{1, 1.0}, {2, 2.0}, {5, 5.0}})}, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2].t, 5);
}

TEST(MergeRuns, SingleRunCollapsesDuplicatesToLaterElement) {
  // Equal adjacent timestamps of one run collapse to the later element,
  // whatever sits in the other (empty) runs.
  std::vector<TvPairDouble> out = Points({{99, 99.0}});
  MergeRuns({{},
             Points({{1, 1.0},
                     {1, 1.5},
                     {2, 2.0},
                     {3, 3.0},
                     {3, 3.5},
                     {3, 3.75},
                     {4, 4.0}}),
             {}},
            &out);
  ASSERT_EQ(out.size(), 4u);
  const double want[] = {1.5, 2.0, 3.75, 4.0};
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].t, static_cast<Timestamp>(i + 1));
    EXPECT_EQ(out[i].v, want[i]);
  }
}

TEST(MergeRuns, InterleavesSortedRuns) {
  std::vector<TvPairDouble> out;
  MergeRuns({Points({{1, 1.0}, {4, 4.0}, {7, 7.0}}),
             Points({{2, 2.0}, {5, 5.0}}),
             Points({{0, 0.0}, {3, 3.0}, {6, 6.0}, {8, 8.0}})},
            &out);
  ASSERT_EQ(out.size(), 9u);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)].t, i);
    EXPECT_DOUBLE_EQ(out[static_cast<size_t>(i)].v, i);
  }
}

TEST(MergeRuns, DedupKeepsHighestPriority) {
  std::vector<TvPairDouble> out;
  MergeRuns({Points({{1, 12.0}}),                // priority 0
             Points({{1, 10.0}, {2, 20.0}}),     // priority 1
             Points({{1, 11.0}, {3, 30.0}})},    // priority 2
            &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].t, 1);
  EXPECT_DOUBLE_EQ(out[0].v, 11.0);  // priority 2 wins
  EXPECT_DOUBLE_EQ(out[1].v, 20.0);
  EXPECT_DOUBLE_EQ(out[2].v, 30.0);
}

TEST(MergeRuns, DedupWithinOneRunKeepsLastElement) {
  std::vector<TvPairDouble> out;
  MergeRuns({Points({{5, 1.0}, {5, 2.0}, {5, 3.0}})}, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].v, 3.0);
}

TEST(MergeRuns, RandomizedAgainstReference) {
  Rng rng(9);
  for (int round = 0; round < 30; ++round) {
    const size_t k = 1 + rng.NextBelow(6);
    std::vector<std::vector<TvPairDouble>> runs;
    std::vector<std::pair<Timestamp, std::pair<int, double>>> reference;
    for (size_t r = 0; r < k; ++r) {
      std::vector<TvPairDouble> run;
      Timestamp t = 0;
      const size_t len = rng.NextBelow(100);
      for (size_t i = 0; i < len; ++i) {
        t += static_cast<Timestamp>(rng.NextBelow(3));  // duplicates likely
        const double v = static_cast<double>(rng.NextBelow(1000));
        run.push_back({t, v});
        reference.push_back({t, {static_cast<int>(r), v}});
      }
      runs.push_back(std::move(run));
    }
    // Reference dedup: for each timestamp keep the entry from the highest
    // priority run; within a run, the last element.
    std::map<Timestamp, std::pair<int, double>> best;
    for (const auto& [t, pv] : reference) {
      auto it = best.find(t);
      if (it == best.end() || pv.first >= it->second.first) {
        best[t] = pv;
      }
    }
    std::vector<TvPairDouble> out;
    MergeRuns(runs, &out);
    ASSERT_EQ(out.size(), best.size()) << "round " << round;
    size_t i = 0;
    for (const auto& [t, pv] : best) {
      ASSERT_EQ(out[i].t, t) << "round " << round;
      ASSERT_DOUBLE_EQ(out[i].v, pv.second) << "round " << round << " t=" << t;
      ++i;
    }
  }
}

}  // namespace
}  // namespace backsort
