#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parse_count.h"
#include "common/rng.h"
#include "disorder/series_generator.h"
#include "engine/storage_engine.h"
#include "memtable/memtable.h"

namespace backsort {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("engine_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  EngineOptions Options(SorterId sorter, bool async = true) {
    EngineOptions opt;
    opt.data_dir = dir_.string();
    opt.sorter = sorter;
    opt.memtable_flush_threshold = 10'000;
    opt.async_flush = async;
    return opt;
  }

  std::filesystem::path dir_;
};

TEST_F(EngineTest, MemTableBasics) {
  MemTable table;
  table.Write(0, "a", 3, 1.0);
  table.Write(0, "a", 1, 2.0);
  table.Write(1, "b", 5, 3.0);
  EXPECT_EQ(table.total_points(), 3u);
  ASSERT_NE(table.GetChunk(0), nullptr);
  EXPECT_EQ(table.GetChunk(0)->size(), 2u);
  EXPECT_FALSE(table.GetChunk(0)->sorted());
  EXPECT_TRUE(table.GetChunk(1)->sorted());
  EXPECT_EQ(table.GetChunk(7), nullptr);
  EXPECT_EQ(table.GetChunk(kInvalidSensorId), nullptr);
  EXPECT_EQ(table.state(), MemTable::State::kWorking);
  table.MarkFlushing();
  EXPECT_EQ(table.state(), MemTable::State::kFlushing);
  EXPECT_GT(table.MemoryBytes(), 0u);
}

TEST_F(EngineTest, WriteQueryRoundTripInMemory) {
  StorageEngine engine(Options(SorterId::kBackward));
  ASSERT_TRUE(engine.Open().ok());
  // Out-of-order writes below the flush threshold stay in memory.
  ASSERT_TRUE(engine.Write("s", 10, 1.0).ok());
  ASSERT_TRUE(engine.Write("s", 30, 3.0).ok());
  ASSERT_TRUE(engine.Write("s", 20, 2.0).ok());
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("s", 0, 100, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].t, 10);
  EXPECT_EQ(out[1].t, 20);
  EXPECT_EQ(out[2].t, 30);
  EXPECT_DOUBLE_EQ(out[1].v, 2.0);
}

TEST_F(EngineTest, QueryRangeFilters) {
  StorageEngine engine(Options(SorterId::kTim));
  ASSERT_TRUE(engine.Open().ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine.Write("s", i, i * 1.0).ok());
  }
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("s", 40, 49, &out).ok());
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out.front().t, 40);
  EXPECT_EQ(out.back().t, 49);
  // Unknown sensor: empty result, not an error.
  ASSERT_TRUE(engine.Query("unknown", 0, 10, &out).ok());
  EXPECT_TRUE(out.empty());
}

class EngineSorterTest : public EngineTest,
                         public ::testing::WithParamInterface<SorterId> {};

TEST_P(EngineSorterTest, FlushAndQueryAcrossFilesUnderDisorder) {
  StorageEngine engine(Options(GetParam()));
  ASSERT_TRUE(engine.Open().ok());
  Rng rng(33);
  AbsNormalDelay delay(1, 30);
  constexpr size_t kN = 50'000;  // several flushes at threshold 10k
  const auto series = GenerateArrivalOrderedSeries<double>(kN, delay, rng);
  for (const auto& p : series) {
    ASSERT_TRUE(engine.Write("s", p.t, p.v).ok());
  }
  ASSERT_TRUE(engine.FlushAll().ok());
  EXPECT_GE(engine.sealed_file_count(), 4u);

  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("s", 0, static_cast<Timestamp>(kN), &out).ok());
  ASSERT_EQ(out.size(), kN);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(out[i].t, static_cast<Timestamp>(i)) << "at " << i;
    ASSERT_DOUBLE_EQ(out[i].v, SignalValueAt(i)) << "at " << i;
  }
  const FlushMetrics metrics = engine.GetFlushMetrics();
  EXPECT_GE(metrics.flush_ms.count(), 4u);
  EXPECT_GT(metrics.flush_ms.mean(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sorters, EngineSorterTest,
    ::testing::Values(SorterId::kBackward, SorterId::kQuick, SorterId::kTim,
                      SorterId::kPatience, SorterId::kCk, SorterId::kY),
    [](const ::testing::TestParamInfo<SorterId>& info) {
      return SorterName(info.param);
    });

// Last-write-wins inside one memtable: 20,000 timestamps arrive as the
// identity with random swaps under 200 positions apart, each written twice
// back to back (1.0, then 2.0). Every sorter must return only the second
// write — from the working table, from a table being flushed, and from the
// sealed file.
class EngineLwwTest : public EngineTest,
                      public ::testing::WithParamInterface<SorterId> {};

TEST_P(EngineLwwTest, RewrittenTimestampsReturnTheLastWrite) {
  constexpr size_t kN = 20'000;
  EngineOptions opt = Options(GetParam());
  opt.shard_count = 1;
  opt.memtable_flush_threshold = 3 * kN;  // both writes share a memtable
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());

  Rng rng(17);
  std::vector<Timestamp> order(kN);
  for (size_t i = 0; i < kN; ++i) order[i] = static_cast<Timestamp>(i);
  for (size_t i = 0; i < kN; ++i) {
    const size_t j = i + rng.NextBelow(200);
    if (j < kN) std::swap(order[i], order[j]);
  }
  for (const Timestamp t : order) {
    ASSERT_TRUE(engine.Write("s", t, 1.0).ok());
    ASSERT_TRUE(engine.Write("s", t, 2.0).ok());
  }
  auto stale_points = [&] {
    std::vector<TvPairDouble> out;
    EXPECT_TRUE(engine.Query("s", 0, kN, &out).ok());
    EXPECT_EQ(out.size(), kN);
    return std::count_if(out.begin(), out.end(),
                         [](const TvPairDouble& p) { return p.v != 2.0; });
  };
  EXPECT_EQ(stale_points(), 0) << "working table";
  // Crossing the threshold with another sensor seals the table; the query
  // right behind it usually finds the table still flushing.
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(engine.Write("u", static_cast<Timestamp>(i), 0.0).ok());
  }
  EXPECT_EQ(stale_points(), 0) << "flushing or sealed table";
  ASSERT_TRUE(engine.FlushAll().ok());
  EXPECT_EQ(stale_points(), 0) << "sealed file";
}

INSTANTIATE_TEST_SUITE_P(
    AllSorters, EngineLwwTest, ::testing::ValuesIn(AllSorters()),
    [](const ::testing::TestParamInfo<SorterId>& info) {
      return SorterName(info.param);
    });

TEST_F(EngineTest, SeparationPolicyRoutesStragglers) {
  EngineOptions opt = Options(SorterId::kBackward, /*async=*/false);
  opt.memtable_flush_threshold = 1000;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  // Fill and flush the first 1000 points.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(engine.Write("s", i, 1.0 * i).ok());
  }
  ASSERT_GE(engine.sealed_file_count(), 1u);
  // A straggler below the watermark goes to the unsequence memtable; it
  // must still be visible to queries, and — being the newer write of
  // timestamp 42 — must shadow the on-disk value (last-write-wins).
  ASSERT_TRUE(engine.Write("s", 500000, 7.0).ok());  // advance nothing (seq)
  ASSERT_TRUE(engine.Write("s", 42, -1.0).ok());     // below watermark
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("s", 42, 42, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].v, -1.0);
  // Unsequence data flushes into its own file.
  ASSERT_TRUE(engine.FlushAll().ok());
  bool saw_unseq = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().filename().string().rfind("unseq-", 0) == 0) {
      saw_unseq = true;
    }
  }
  EXPECT_TRUE(saw_unseq);
}

TEST_F(EngineTest, SyncFlushMode) {
  EngineOptions opt = Options(SorterId::kQuick, /*async=*/false);
  opt.memtable_flush_threshold = 5000;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  Rng rng(44);
  LogNormalDelay delay(1, 1);
  const auto series = GenerateArrivalOrderedSeries<double>(20'000, delay, rng);
  for (const auto& p : series) {
    ASSERT_TRUE(engine.Write("s", p.t, p.v).ok());
  }
  ASSERT_TRUE(engine.FlushAll().ok());
  // At least the four sequence flushes; stragglers below the watermark may
  // add unsequence files.
  EXPECT_GE(engine.sealed_file_count(), 4u);
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("s", 0, 20'000, &out).ok());
  EXPECT_EQ(out.size(), 20'000u);
}

// A pool flush that fails leaves its table in `flushing_`. FlushAll must
// still return once every queued flush has been attempted, with the
// failure, and keep the table queryable and its WAL segment on disk.
TEST_F(EngineTest, AsyncFlushAllReturnsFlushFailure) {
  EngineOptions opt = Options(SorterId::kBackward);
  opt.shard_count = 1;  // flush temporaries are named flush-0-<seq>
  opt.memtable_flush_threshold = 1'000'000;  // flushes only by hand
  auto engine = std::make_unique<StorageEngine>(opt);
  ASSERT_TRUE(engine->Open().ok());
  for (Timestamp t = 0; t < 1000; ++t) {
    ASSERT_TRUE(engine->Write("s", t, static_cast<double>(t)).ok());
  }
  std::vector<std::filesystem::path> blockers;
  for (int seq = 0; seq < 4; ++seq) {
    blockers.push_back(dir_ / ("flush-0-" + std::to_string(seq) + ".bstf.tmp"));
    std::filesystem::create_directory(blockers.back());
  }
  StorageEngine* raw = engine.get();
  auto flushed = std::make_unique<std::future<Status>>(
      std::async(std::launch::async, [raw] { return raw->FlushAll(); }));
  if (flushed->wait_for(std::chrono::seconds(5)) !=
      std::future_status::ready) {
    // The blocked waiter would hang both destructors: leak them.
    (void)flushed.release();
    (void)engine.release();
    FAIL() << "FlushAll still blocked after 5 s";
  }
  EXPECT_FALSE(flushed->get().ok());
  for (const auto& b : blockers) std::filesystem::remove(b);

  EXPECT_EQ(engine->GetMetricsSnapshot().shards[0].flushing_tables, 1u);
  EXPECT_EQ(engine->sealed_file_count(), 0u);
  size_t wal_segments = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    if (e.path().filename().string().rfind("wal-", 0) == 0) ++wal_segments;
  }
  EXPECT_GE(wal_segments, 1u);
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine->Query("s", 0, 2000, &out).ok());
  EXPECT_EQ(out.size(), 1000u);

  // The failure is reported once; later tables flush normally.
  for (Timestamp t = 1000; t < 2000; ++t) {
    ASSERT_TRUE(engine->Write("s", t, static_cast<double>(t)).ok());
  }
  ASSERT_TRUE(engine->FlushAll().ok());
  EXPECT_EQ(engine->sealed_file_count(), 1u);
  out.clear();
  ASSERT_TRUE(engine->Query("s", 0, 2000, &out).ok());
  EXPECT_EQ(out.size(), 2000u);
}

TEST_F(EngineTest, ConcurrentQueriesDuringIngest) {
  StorageEngine engine(Options(SorterId::kBackward));
  ASSERT_TRUE(engine.Open().ok());
  std::atomic<bool> done{false};
  std::atomic<size_t> queries{0};
  std::thread reader([&] {
    std::vector<TvPairDouble> out;
    while (!done.load()) {
      ASSERT_TRUE(engine.Query("s", 0, 1'000'000, &out).ok());
      // Results must always be sorted.
      for (size_t i = 1; i < out.size(); ++i) {
        ASSERT_LE(out[i - 1].t, out[i].t);
      }
      queries.fetch_add(1);
    }
  });
  Rng rng(55);
  AbsNormalDelay delay(1, 50);
  const auto series = GenerateArrivalOrderedSeries<double>(60'000, delay, rng);
  for (const auto& p : series) {
    ASSERT_TRUE(engine.Write("s", p.t, p.v).ok());
  }
  ASSERT_TRUE(engine.FlushAll().ok());
  done.store(true);
  reader.join();
  EXPECT_GT(queries.load(), 0u);
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("s", 0, 1'000'000, &out).ok());
  EXPECT_EQ(out.size(), 60'000u);
}

TEST_F(EngineTest, LastCacheTracksNewestPoint) {
  StorageEngine engine(Options(SorterId::kBackward));
  ASSERT_TRUE(engine.Open().ok());
  TvPairDouble last;
  EXPECT_TRUE(engine.GetLatest("s", &last).IsNotFound());
  ASSERT_TRUE(engine.Write("s", 10, 1.0).ok());
  ASSERT_TRUE(engine.Write("s", 30, 3.0).ok());
  ASSERT_TRUE(engine.Write("s", 20, 2.0).ok());  // late point, not newest
  ASSERT_TRUE(engine.GetLatest("s", &last).ok());
  EXPECT_EQ(last.t, 30);
  EXPECT_DOUBLE_EQ(last.v, 3.0);
  // Rewrite of the newest timestamp wins (last write).
  ASSERT_TRUE(engine.Write("s", 30, 33.0).ok());
  ASSERT_TRUE(engine.GetLatest("s", &last).ok());
  EXPECT_DOUBLE_EQ(last.v, 33.0);
}

TEST_F(EngineTest, LastCacheSurvivesRestart) {
  EngineOptions opt = Options(SorterId::kTim, /*async=*/false);
  opt.memtable_flush_threshold = 100;
  {
    StorageEngine engine(opt);
    ASSERT_TRUE(engine.Open().ok());
    for (int i = 0; i < 250; ++i) {  // two flushes + WAL remainder
      ASSERT_TRUE(engine.Write("s", i, i * 1.5).ok());
    }
  }
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  TvPairDouble last;
  ASSERT_TRUE(engine.GetLatest("s", &last).ok());
  EXPECT_EQ(last.t, 249);
  EXPECT_DOUBLE_EQ(last.v, 249 * 1.5);
}

TEST_F(EngineTest, MultipleSensors) {
  StorageEngine engine(Options(SorterId::kBackward));
  ASSERT_TRUE(engine.Open().ok());
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(engine.Write("a", i, 1.0).ok());
    ASSERT_TRUE(engine.Write("b", i, 2.0).ok());
    ASSERT_TRUE(engine.Write("c", i, 3.0).ok());
  }
  ASSERT_TRUE(engine.FlushAll().ok());
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("b", 0, 10'000, &out).ok());
  ASSERT_EQ(out.size(), 5000u);
  for (const auto& p : out) EXPECT_DOUBLE_EQ(p.v, 2.0);
}

// --- batched ingest -------------------------------------------------------

TEST_F(EngineTest, WriteBatchAppliedCountOnSuccess) {
  StorageEngine engine(Options(SorterId::kBackward));
  ASSERT_TRUE(engine.Open().ok());
  std::vector<TvPairDouble> batch;
  for (int i = 0; i < 257; ++i) batch.push_back({i, i * 0.5});
  size_t applied = 999;
  ASSERT_TRUE(engine.WriteBatch("bs", batch, &applied).ok());
  EXPECT_EQ(applied, 257u);
  ASSERT_TRUE(engine.WriteBatch("bs", {}, &applied).ok());
  EXPECT_EQ(applied, 0u);
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("bs", 0, 1'000, &out).ok());
  EXPECT_EQ(out.size(), 257u);
  const auto snap = engine.GetMetricsSnapshot();
  EXPECT_EQ(snap.batch_writes, 1u);  // the empty batch is a no-op
  EXPECT_EQ(snap.batch_points, 257u);
}

TEST_F(EngineTest, WriteBatchSplitsAcrossSeqAndUnseq) {
  // A batch straddling the flushed watermark must partition mid-batch:
  // the late points join the unsequence table, yet applied counts the
  // whole batch and queries see one merged series.
  StorageEngine engine(Options(SorterId::kBackward));
  ASSERT_TRUE(engine.Open().ok());
  for (int i = 0; i <= 100; ++i) ASSERT_TRUE(engine.Write("mix", i, 0.0).ok());
  ASSERT_TRUE(engine.FlushAll().ok());  // watermark now 100

  std::vector<TvPairDouble> straddle;
  for (int i = 0; i < 40; ++i) {
    straddle.push_back({50 + i * 5, 1.0});  // t in [50, 245]: both sides
  }
  size_t applied = 0;
  ASSERT_TRUE(engine.WriteBatch("mix", straddle, &applied).ok());
  EXPECT_EQ(applied, straddle.size());

  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("mix", 0, 1'000, &out).ok());
  // 101 flushed + 40 batched, minus the 11 unsequence points that rewrite
  // a flushed timestamp (t = 50, 55, ..., 100): the rewrite wins the merge.
  EXPECT_EQ(out.size(), 130u);
  for (size_t i = 1; i < out.size(); ++i) {
    ASSERT_LE(out[i - 1].t, out[i].t) << "merge lost ordering at " << i;
  }
  for (const auto& p : out) {
    if (p.t >= 50 && p.t <= 245 && p.t % 5 == 0) {
      EXPECT_DOUBLE_EQ(p.v, 1.0) << "rewrite lost at t=" << p.t;
    }
  }
  TvPairDouble latest{};
  ASSERT_TRUE(engine.GetLatest("mix", &latest).ok());
  EXPECT_EQ(latest.t, 245);
  EXPECT_DOUBLE_EQ(latest.v, 1.0);
}

TEST_F(EngineTest, WriteBatchPartialApplyOnMidBatchError) {
  // The partial-apply contract: a target memtable is fully applied or
  // untouched. Seal once so the watermark exists and the sequence WAL
  // segment is already open, then delete the data dir — the open segment
  // still accepts appends (unlinked but open), while the unsequence
  // target's lazy WAL rotation cannot create its file. The straddling
  // batch lands its sequence half and errors on the unsequence half.
  EngineOptions opt = Options(SorterId::kBackward);
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  for (int i = 0; i <= 100; ++i) ASSERT_TRUE(engine.Write("pa", i, 0.0).ok());
  ASSERT_TRUE(engine.FlushAll().ok());
  ASSERT_TRUE(engine.Write("pa", 200, 0.0).ok());  // reopens the seq WAL

  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
  const std::vector<TvPairDouble> straddle = {
      {300, 1.0}, {301, 1.0}, {302, 1.0},  // sequence side
      {10, 2.0},  {20, 2.0},               // unsequence side
  };
  size_t applied = 999;
  const Status st = engine.WriteBatch("pa", straddle, &applied);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(applied, 3u);  // sequence target applied, unsequence untouched

  // The staged sequence points are queryable in memory; the failed
  // unsequence half left no trace, so the last cache tops out at t=302.
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("pa", 250, 400, &out).ok());
  EXPECT_EQ(out.size(), 3u);
  TvPairDouble latest{};
  ASSERT_TRUE(engine.GetLatest("pa", &latest).ok());
  EXPECT_EQ(latest.t, 302);

  // A fresh engine whose dir vanishes before the first write cannot open
  // any WAL segment: nothing is applied.
  const auto dir2 = dir_.string() + "_fresh";
  EngineOptions opt2 = opt;
  opt2.data_dir = dir2;
  StorageEngine fresh(opt2);
  ASSERT_TRUE(fresh.Open().ok());
  std::filesystem::remove_all(dir2, ec);
  applied = 999;
  EXPECT_FALSE(fresh.WriteBatch("pa", straddle, &applied).ok());
  EXPECT_EQ(applied, 0u);
  std::filesystem::remove_all(dir2, ec);
}

TEST_F(EngineTest, WriteMultiAppliesEverySensor) {
  StorageEngine engine(Options(SorterId::kBackward));
  ASSERT_TRUE(engine.Open().ok());
  std::vector<std::string> names(5);
  std::vector<std::vector<TvPairDouble>> points(5);
  std::vector<SensorSpanDouble> spans;
  for (int s = 0; s < 5; ++s) {
    names[s] = "multi." + std::to_string(s);
    for (int i = 0; i < 100; ++i) points[s].push_back({i, s + i * 0.001});
    spans.push_back({&names[s], points[s].data(), points[s].size()});
  }
  size_t applied = 0;
  ASSERT_TRUE(engine.WriteMulti(spans.data(), spans.size(), &applied).ok());
  EXPECT_EQ(applied, 500u);
  for (int s = 0; s < 5; ++s) {
    std::vector<TvPairDouble> out;
    ASSERT_TRUE(
        engine.Query("multi." + std::to_string(s), 0, 1'000, &out).ok());
    ASSERT_EQ(out.size(), 100u) << s;
    EXPECT_DOUBLE_EQ(out[7].v, s + 7 * 0.001);
  }
  const auto snap = engine.GetMetricsSnapshot();
  EXPECT_EQ(snap.batch_points, 500u);
  EXPECT_GE(snap.batch_writes, 1u);  // one call per shard touched
}

// Restores an environment variable's previous state when the scope ends,
// so the hook tests also pass under ci.sh's sharded re-run, which exports
// BACKSORT_SHARDS and BACKSORT_FLUSH_WORKERS itself.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(ParseCountTest, AcceptsPlainDecimalCounts) {
  const struct {
    const char* text;
    size_t value;
  } cases[] = {{"0", 0},
               {"7", 7},
               {"0042", 42},
               {"18446744073709551615", std::numeric_limits<size_t>::max()}};
  for (const auto& c : cases) {
    size_t out = 123;
    EXPECT_TRUE(ParseCount(c.text, &out)) << c.text;
    EXPECT_EQ(out, c.value) << c.text;
  }
}

TEST(ParseCountTest, RejectsEverythingElse) {
  for (const char* text :
       {"", "-1", "+1", "-0", " 1", "1 ", "10x", "x10", "1.5", "0x10", "1e3",
        "18446744073709551616", "99999999999999999999999"}) {
    size_t out = 123;
    EXPECT_FALSE(ParseCount(text, &out)) << "'" << text << "'";
    EXPECT_EQ(out, 123u) << "'" << text << "' wrote its output";
  }
}

TEST(ParseTimestampTest, AcceptsSignedDecimals) {
  const struct {
    const char* text;
    int64_t value;
  } cases[] = {{"0", 0},
               {"-0", 0},
               {"5", 5},
               {"-5", -5},
               {"0042", 42},
               {"9223372036854775807", std::numeric_limits<int64_t>::max()},
               {"-9223372036854775808", std::numeric_limits<int64_t>::min()}};
  for (const auto& c : cases) {
    int64_t out = 123;
    EXPECT_TRUE(ParseTimestamp(c.text, &out)) << c.text;
    EXPECT_EQ(out, c.value) << c.text;
  }
}

TEST(ParseTimestampTest, RejectsEverythingElse) {
  for (const char* text :
       {"", "-", "+1", " 1", "1 ", "5x", "x5", "junk", "1.5", "0x10", "1e3",
        "--1", "9223372036854775808", "-9223372036854775809"}) {
    int64_t out = 123;
    EXPECT_FALSE(ParseTimestamp(text, &out)) << "'" << text << "'";
    EXPECT_EQ(out, 123) << "'" << text << "' wrote its output";
  }
}

TEST_F(EngineTest, EnvHooksResolveShardAndWorkerCounts) {
  ScopedEnv shards("BACKSORT_SHARDS", "3");
  ScopedEnv workers("BACKSORT_FLUSH_WORKERS", "2");
  StorageEngine engine(Options(SorterId::kBackward));
  EXPECT_EQ(engine.shard_count(), 3u);
  EXPECT_EQ(engine.flush_worker_count(), 2u);
  ASSERT_TRUE(engine.Open().ok());
}

TEST_F(EngineTest, ExplicitOptionsOverrideEnvHooks) {
  // Explicit values win, and a hook that is not consulted cannot fail
  // Open(), however malformed.
  for (const char* value : {"3", "3x"}) {
    ScopedEnv shards("BACKSORT_SHARDS", value);
    ScopedEnv workers("BACKSORT_FLUSH_WORKERS", value);
    EngineOptions opt = Options(SorterId::kBackward);
    opt.data_dir = (dir_ / value).string();
    opt.shard_count = 2;
    opt.flush_workers = 1;
    StorageEngine engine(opt);
    EXPECT_EQ(engine.shard_count(), 2u) << value;
    EXPECT_EQ(engine.flush_worker_count(), 1u) << value;
    ASSERT_TRUE(engine.Open().ok()) << value;
  }
}

TEST_F(EngineTest, MalformedEnvHookFailsOpen) {
  for (const char* name : {"BACKSORT_SHARDS", "BACKSORT_FLUSH_WORKERS"}) {
    ScopedEnv shards("BACKSORT_SHARDS", "2");
    ScopedEnv workers("BACKSORT_FLUSH_WORKERS", "1");
    ScopedEnv bad(name, "2x");
    StorageEngine engine(Options(SorterId::kBackward));
    const Status st = engine.Open();
    EXPECT_TRUE(st.IsInvalidArgument()) << name << ": " << st.ToString();
    EXPECT_NE(st.message().find(name), std::string::npos) << st.ToString();
    // Open() fails before it touches the data directory.
    EXPECT_FALSE(std::filesystem::exists(dir_)) << name;
  }
}

}  // namespace
}  // namespace backsort
