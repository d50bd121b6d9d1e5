#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/sorter_registry.h"
#include "disorder/series_generator.h"
#include "memtable/memtable.h"
#include "tvlist/tv_list.h"

namespace backsort {
namespace {

TEST(TVList, PutAndReadBack) {
  IntTVList list;
  for (int i = 0; i < 100; ++i) {
    list.Put(i * 2, i);
  }
  ASSERT_EQ(list.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(list.TimeAt(i), i * 2);
    EXPECT_EQ(list.ValueAt(i), i);
  }
  EXPECT_TRUE(list.sorted());
  EXPECT_EQ(list.min_time(), 0);
  EXPECT_EQ(list.max_time(), 198);
}

TEST(TVList, SpansMultipleArrays) {
  IntTVList list(/*array_size=*/8);
  for (int i = 0; i < 1000; ++i) list.Put(i, -i);
  ASSERT_EQ(list.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(list.TimeAt(i), i);
    ASSERT_EQ(list.ValueAt(i), -i);
  }
}

TEST(TVList, DetectsDisorder) {
  IntTVList list;
  list.Put(10, 1);
  EXPECT_TRUE(list.sorted());
  list.Put(20, 2);
  EXPECT_TRUE(list.sorted());
  list.Put(15, 3);
  EXPECT_FALSE(list.sorted());
  EXPECT_EQ(list.max_time(), 20);
  EXPECT_EQ(list.min_time(), 10);
}

TEST(TVList, EqualTimestampAppendStaysSorted) {
  IntTVList list;
  list.Put(5, 1);
  list.Put(5, 2);
  EXPECT_TRUE(list.sorted());
}

TEST(TVList, CloneIsDeep) {
  IntTVList list;
  for (int i = 0; i < 50; ++i) list.Put(i, i);
  IntTVList copy = list.Clone();
  copy.SetPoint(0, 999, 999);
  EXPECT_EQ(list.TimeAt(0), 0);
  EXPECT_EQ(copy.TimeAt(0), 999);
}

TEST(TVList, MemoryAccounting) {
  IntTVList list(32);
  EXPECT_EQ(list.MemoryBytes(), 0u);
  list.Put(1, 1);
  EXPECT_EQ(list.MemoryBytes(), 32 * (sizeof(Timestamp) + sizeof(int32_t)));
  for (int i = 0; i < 32; ++i) list.Put(i, i);
  EXPECT_EQ(list.MemoryBytes(),
            2 * 32 * (sizeof(Timestamp) + sizeof(int32_t)));
}

TEST(TVList, ClearResets) {
  IntTVList list;
  list.Put(3, 1);
  list.Put(1, 2);
  EXPECT_FALSE(list.sorted());
  list.Clear();
  EXPECT_EQ(list.size(), 0u);
  EXPECT_TRUE(list.sorted());
}

// --- bulk append ----------------------------------------------------------------

TEST(TVList, AppendNBitIdenticalToPut) {
  // The bulk path must leave every observable — contents, size, sorted
  // flag, min/max, memory accounting — exactly as the per-point loop
  // would, across array-boundary-straddling sizes.
  Rng rng(7);
  AbsNormalDelay delay(1, 20);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                         size_t{9}, size_t{1000}}) {
    const auto series = GenerateArrivalOrderedSeries<int32_t>(n, delay, rng);
    IntTVList a(/*array_size=*/8), b(/*array_size=*/8);
    for (const auto& p : series) a.Put(p.t, p.v);
    b.AppendN(series.data(), series.size());
    ASSERT_EQ(b.size(), a.size()) << "n=" << n;
    ASSERT_EQ(b.sorted(), a.sorted()) << "n=" << n;
    ASSERT_EQ(b.min_time(), a.min_time()) << "n=" << n;
    ASSERT_EQ(b.max_time(), a.max_time()) << "n=" << n;
    ASSERT_EQ(b.MemoryBytes(), a.MemoryBytes()) << "n=" << n;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(b.TimeAt(i), a.TimeAt(i)) << "n=" << n << " i=" << i;
      ASSERT_EQ(b.ValueAt(i), a.ValueAt(i)) << "n=" << n << " i=" << i;
    }
  }
}

TEST(TVList, AppendNContinuesExistingList) {
  // Slicing one stream into Put and several AppendN calls at odd offsets
  // must equal the all-Put twin — the flags carry across call boundaries.
  Rng rng(8);
  AbsNormalDelay delay(1, 5);
  const auto series = GenerateArrivalOrderedSeries<int32_t>(100, delay, rng);
  IntTVList a(8), b(8);
  for (const auto& p : series) a.Put(p.t, p.v);
  for (size_t i = 0; i < 13; ++i) b.Put(series[i].t, series[i].v);
  b.AppendN(series.data() + 13, 3);
  b.AppendN(series.data() + 16, 0);
  b.AppendN(series.data() + 16, 84);
  ASSERT_EQ(b.size(), a.size());
  EXPECT_EQ(b.sorted(), a.sorted());
  EXPECT_EQ(b.min_time(), a.min_time());
  EXPECT_EQ(b.max_time(), a.max_time());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(b.TimeAt(i), a.TimeAt(i));
    ASSERT_EQ(b.ValueAt(i), a.ValueAt(i));
  }
}

TEST(TVList, AppendNFlagSemanticsMatchPut) {
  // Equal timestamps keep the list sorted (Put's `<` comparison), and a
  // single backward point flips it — both through the bulk path.
  const TvPairInt sorted_pairs[] = {{5, 1}, {5, 2}, {6, 3}};
  IntTVList stays;
  stays.AppendN(sorted_pairs, 3);
  EXPECT_TRUE(stays.sorted());
  EXPECT_EQ(stays.min_time(), 5);
  EXPECT_EQ(stays.max_time(), 6);

  const TvPairInt disordered[] = {{10, 1}, {20, 2}, {15, 3}};
  IntTVList flips;
  flips.AppendN(disordered, 3);
  EXPECT_FALSE(flips.sorted());
  EXPECT_EQ(flips.max_time(), 20);
  EXPECT_EQ(flips.min_time(), 10);
}

TEST(TVList, AppendRangeToMatchesPerPointReads) {
  // The engine's one copy-out, pinned against TimeAt/ValueAt for array
  // sizes below, at and across the default, over ranges that cut inside
  // arrays, sit on their edges, cover the whole list or miss it.
  Rng rng(29);
  for (size_t array_size : {1u, 2u, 3u, 7u, 31u, 32u, 33u, 64u}) {
    for (size_t n : {0u, 1u, 5u, 32u, 100u, 257u}) {
      DoubleTVList list(array_size);
      for (size_t i = 0; i < n; ++i) {
        list.Put(static_cast<Timestamp>(rng.NextBelow(200)) - 50,
                 static_cast<double>(i));
      }
      const Timestamp lo = n == 0 ? 0 : list.min_time();
      const Timestamp hi = n == 0 ? 0 : list.max_time();
      const std::pair<Timestamp, Timestamp> ranges[] = {
          {lo, hi},          {lo - 1, hi + 1}, {lo + 1, hi},
          {lo, hi - 1},      {0, 0},           {-10, 10},
          {lo + 3, lo + 40}, {hi + 1, hi + 9}, {lo - 9, lo - 1},
          {20, 10},          {std::numeric_limits<Timestamp>::min(),
                              std::numeric_limits<Timestamp>::max()}};
      for (const auto& [t_min, t_max] : ranges) {
        // A non-empty prefix must survive: the copy appends.
        std::vector<TvPairDouble> got = {{-1, -1.0}};
        list.AppendRangeTo(t_min, t_max, &got);
        std::vector<TvPairDouble> want = {{-1, -1.0}};
        for (size_t i = 0; i < list.size(); ++i) {
          const Timestamp t = list.TimeAt(i);
          if (t >= t_min && t <= t_max) want.push_back({t, list.ValueAt(i)});
        }
        EXPECT_EQ(got, want) << "array_size=" << array_size << " n=" << n
                             << " range=[" << t_min << "," << t_max << "]";
      }
    }
  }
}

TEST(MemTable, WriteNBitIdenticalToWrite) {
  // The memtable bulk path (one map lookup + one accounting update per
  // slice) must leave the same state as per-point Write, including the
  // lock-free footprint estimate queries read for flush triggering.
  Rng rng(9);
  AbsNormalDelay delay(1, 10);
  std::vector<TvPairDouble> s0, s1;
  for (const auto& p : GenerateArrivalOrderedSeries<int32_t>(300, delay, rng)) {
    s0.push_back({p.t, static_cast<double>(p.v)});
  }
  for (const auto& p : GenerateArrivalOrderedSeries<int32_t>(40, delay, rng)) {
    s1.push_back({p.t, static_cast<double>(p.v)});
  }

  MemTable a, b;
  for (const auto& p : s0) a.Write(0, "s0", p.t, p.v);
  for (const auto& p : s1) a.Write(1, "s1", p.t, p.v);
  b.WriteN(0, "s0", s0.data(), 120);
  b.WriteN(0, "s0", s0.data() + 120, s0.size() - 120);
  b.WriteN(1, "s1", s1.data(), s1.size());
  b.WriteN(1, "s1", s1.data() + s1.size(), 0);

  EXPECT_EQ(b.total_points(), a.total_points());
  EXPECT_EQ(b.MemoryBytes(), a.MemoryBytes());
  EXPECT_EQ(b.ApproxMemoryBytes(), a.ApproxMemoryBytes());
  ASSERT_EQ(b.chunks().size(), a.chunks().size());
  for (const MemTable::Chunk* chunk_a : a.chunks()) {
    const DoubleTVList& list_a = chunk_a->list;
    const std::string sensor(chunk_a->sensor);
    const DoubleTVList* list_b = b.GetChunk(chunk_a->id);
    ASSERT_NE(list_b, nullptr) << sensor;
    ASSERT_EQ(list_b->size(), list_a.size()) << sensor;
    EXPECT_EQ(list_b->sorted(), list_a.sorted()) << sensor;
    EXPECT_EQ(list_b->min_time(), list_a.min_time()) << sensor;
    EXPECT_EQ(list_b->max_time(), list_a.max_time()) << sensor;
    for (size_t i = 0; i < list_a.size(); ++i) {
      ASSERT_EQ(list_b->TimeAt(i), list_a.TimeAt(i)) << sensor << " " << i;
      ASSERT_EQ(list_b->ValueAt(i), list_a.ValueAt(i)) << sensor << " " << i;
    }
  }
}

// Every registered sorter must sort a TVList through the adapter, carrying
// the values along with the timestamps.
class TVListSortTest : public ::testing::TestWithParam<SorterId> {};

TEST_P(TVListSortTest, SortsTVListWithValueBinding) {
  Rng rng(31);
  AbsNormalDelay delay(1, 15);
  const size_t n = GetParam() == SorterId::kInsertion ? 3000 : 30000;
  const auto ts = GenerateArrivalOrderedTimestamps(n, delay, rng);
  IntTVList list;
  for (Timestamp t : ts) {
    list.Put(t, static_cast<int32_t>(t * 7 + 3));
  }
  TVListSortable<int32_t> seq(list);
  SortWith(GetParam(), seq);
  for (size_t i = 0; i < list.size(); ++i) {
    ASSERT_EQ(list.TimeAt(i), static_cast<Timestamp>(i));
    ASSERT_EQ(list.ValueAt(i), static_cast<int32_t>(i * 7 + 3))
        << "value binding lost at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSorters, TVListSortTest, ::testing::ValuesIn(AllSorters()),
    [](const ::testing::TestParamInfo<SorterId>& info) {
      return SorterName(info.param);
    });

}  // namespace
}  // namespace backsort
