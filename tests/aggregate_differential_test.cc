// Brute-force differential test for the statistics-driven aggregation plan.
//
// For several disorder distributions (src/disorder/) and both footer modes
// (BSTF2 statistics on, stat-less BSTF1 legacy), random workloads are
// ingested through the engine and AggregateFast is compared bit-for-bit
// (EXPECT_NEAR only on the FP sum, which legally reassociates across pages)
// against a full-decode reference computed from the raw written points. The
// statistics plan must be an optimization, never an approximation.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "disorder/delay_distribution.h"
#include "disorder/series_generator.h"
#include "engine/storage_engine.h"

namespace backsort {
namespace {

// Reference aggregate over the raw (timestamp, value) pairs, applying the
// documented NaN contract independently of any engine code: NaN counts and
// may be first/last, but never reaches min/max/sum.
struct RefAgg {
  size_t count = 0;
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  Timestamp first_time = 0;
  double first = 0;
  Timestamp last_time = 0;
  double last = 0;
};

RefAgg BruteForce(const std::vector<Timestamp>& ts,
                  const std::vector<double>& vs, Timestamp t_min,
                  Timestamp t_max) {
  RefAgg r;
  for (size_t i = 0; i < ts.size(); ++i) {
    if (ts[i] < t_min || ts[i] > t_max) continue;
    if (r.count == 0 || ts[i] < r.first_time) {
      r.first_time = ts[i];
      r.first = vs[i];
    }
    if (r.count == 0 || ts[i] > r.last_time) {
      r.last_time = ts[i];
      r.last = vs[i];
    }
    ++r.count;
    if (!std::isnan(vs[i])) {
      r.min = std::min(r.min, vs[i]);
      r.max = std::max(r.max, vs[i]);
      r.sum += vs[i];
    }
  }
  return r;
}

void ExpectSameValue(double got, double want, const std::string& what) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << what;
  } else {
    EXPECT_DOUBLE_EQ(got, want) << what;
  }
}

class AggregateDifferentialTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::unique_ptr<StorageEngine> MakeEngine(const std::string& tag,
                                            bool footer_stats,
                                            size_t flush_threshold = 3'000) {
    dir_ = std::filesystem::temp_directory_path() /
           ("agg_diff_" + std::to_string(::getpid()) + "_" + tag);
    std::filesystem::remove_all(dir_);
    EngineOptions opt;
    opt.data_dir = dir_.string();
    opt.sorter = SorterId::kBackward;
    opt.memtable_flush_threshold = flush_threshold;  // several files per run
    opt.async_flush = false;
    opt.footer_stats = footer_stats;
    auto engine = std::make_unique<StorageEngine>(opt);
    EXPECT_TRUE(engine->Open().ok());
    return engine;
  }

  // Ingests a disordered stream, then checks AggregateFast against the
  // brute-force reference over a sweep of ranges: full coverage (footer
  // statistics when stats are on), random partial ranges (page folds and
  // boundary decodes), and degenerate/out-of-range probes.
  // `leave_tail_in_memory` keeps the last points unflushed, so the merge
  // of working-table runs with sealed pages is diffed too.
  // `rewrites` writes about one in eight points a second time, inside the
  // memtable that holds the first write (the workload then flushes every
  // 2,500 arrivals itself, and only then), and requires every probe on
  // the fast path; the reference keeps each timestamp's last write.
  void RunWorkload(const std::string& tag, const DelayDistribution& delay,
                   bool footer_stats, bool leave_tail_in_memory,
                   uint64_t seed, bool rewrites = false) {
    Rng rng(seed);
    const size_t n = 20'000;
    auto engine = MakeEngine(tag, footer_stats, rewrites ? 1'000'000 : 3'000);
    const std::vector<Timestamp> arrivals =
        GenerateArrivalOrderedTimestamps(n, delay, rng);
    std::map<Timestamp, double> last_write;
    size_t flushed = 0;  // arrivals before the workload's last FlushAll
    for (size_t i = 0; i < arrivals.size(); ++i) {
      double v = SignalValueAt(static_cast<size_t>(arrivals[i]));
      // Sprinkle NaN to exercise the exclusion contract on every tier.
      if (arrivals[i] % 997 == 0) v = std::nan("");
      ASSERT_TRUE(engine->Write("s", arrivals[i], v).ok());
      last_write[arrivals[i]] = v;
      if (!rewrites) continue;
      if (rng.NextBelow(8) == 0) {
        const size_t back = std::min<size_t>(i - flushed, 63);
        const Timestamp t = arrivals[i - rng.NextBelow(back + 1)];
        const double rewritten = last_write[t] * -0.5 + 1.0;
        ASSERT_TRUE(engine->Write("s", t, rewritten).ok());
        last_write[t] = rewritten;
      }
      if ((i + 1) % 2'500 == 0) {
        ASSERT_TRUE(engine->FlushAll().ok());
        flushed = i + 1;
      }
    }
    std::vector<Timestamp> ts;
    std::vector<double> vs;
    for (const auto& [t, v] : last_write) {
      ts.push_back(t);
      vs.push_back(v);
    }
    if (leave_tail_in_memory) {
      // Do not flush: disordered working memtables shadow the files, so
      // the probes merge their points with the sealed pages.
    } else {
      ASSERT_TRUE(engine->FlushAll().ok());
    }

    std::vector<std::pair<Timestamp, Timestamp>> ranges = {
        {0, static_cast<Timestamp>(n - 1)},      // full coverage
        {0, static_cast<Timestamp>(2 * n)},      // over-covering
        {static_cast<Timestamp>(n), static_cast<Timestamp>(2 * n)},  // empty
        {500, 499},                              // inverted => zero-count
        {42, 42},                                // single point
    };
    for (int i = 0; i < 12; ++i) {  // random partial ranges
      const Timestamp a = static_cast<Timestamp>(rng.NextBelow(n));
      const Timestamp b = static_cast<Timestamp>(rng.NextBelow(n));
      ranges.emplace_back(std::min(a, b), std::max(a, b));
    }

    size_t fast_probes = 0;
    for (const auto& [t_min, t_max] : ranges) {
      const RefAgg want = BruteForce(ts, vs, t_min, t_max);
      TsFileReader::RangeStats got;
      bool used_fast = false;
      ASSERT_TRUE(
          engine->AggregateFast("s", t_min, t_max, &got, &used_fast).ok())
          << tag << " [" << t_min << "," << t_max << "]";
      fast_probes += used_fast ? 1 : 0;
      const std::string what = tag + " [" + std::to_string(t_min) + "," +
                               std::to_string(t_max) + "]";
      ASSERT_EQ(got.count, want.count) << what;
      if (want.count == 0) continue;
      ExpectSameValue(got.min, want.min, what + " min");
      ExpectSameValue(got.max, want.max, what + " max");
      EXPECT_NEAR(got.sum, want.sum,
                  1e-9 * std::max(1.0, std::abs(want.sum)))
          << what;
      EXPECT_EQ(got.first_time, want.first_time) << what;
      EXPECT_EQ(got.last_time, want.last_time) << what;
      ExpectSameValue(got.first, want.first, what + " first");
      ExpectSameValue(got.last, want.last, what + " last");
    }
    if (rewrites) EXPECT_EQ(fast_probes, ranges.size()) << tag;
  }

  // A seeded shape with every kind of source: sequence files of strided
  // timestamps, a sparse unsequence file of late points (rewrites and
  // fresh timestamps), a flushing table (a flush made to fail keeps it
  // there) and a working table, each holding late points and points past
  // the files. With `interleaved`, a second file instead fills every gap
  // of the first, so no page is free of another source's points. Query
  // is checked against a brute-force last-write-wins merge, and
  // AggregateFast against the brute-force fold of it. Returns the pages
  // the probes folded from page statistics.
  uint64_t RunMixedSources(const std::string& tag, uint64_t seed,
                           bool interleaved) {
    Rng rng(seed);
    const Timestamp n = 60'000;  // the files hold even timestamps below n
    EngineOptions opt;
    opt.data_dir = (std::filesystem::temp_directory_path() /
                    ("agg_diff_" + std::to_string(::getpid()) + "_" + tag))
                       .string();
    dir_ = opt.data_dir;
    std::filesystem::remove_all(dir_);
    opt.shard_count = 1;  // flush temporaries are named flush-0-<seq>
    opt.memtable_flush_threshold = 1'000'000;  // flushes only by hand
    opt.async_flush = false;
    StorageEngine engine(opt);
    EXPECT_TRUE(engine.Open().ok());

    std::map<Timestamp, double> last_write;
    auto write = [&](Timestamp t) {
      const double v = t % 997 == 0
                           ? std::nan("")
                           : static_cast<double>(rng.NextBelow(1000)) - 500.0;
      EXPECT_TRUE(engine.Write("s", t, v).ok());
      last_write[t] = v;
    };
    for (Timestamp t = 0; t < n; t += 2) {
      write(t);
      if ((t / 2 + 1) % 10'000 == 0) EXPECT_TRUE(engine.FlushAll().ok());
    }
    // Late points below the watermark land in unsequence tables.
    auto late = [&](size_t count) {
      for (size_t i = 0; i < count; ++i) {
        write(static_cast<Timestamp>(rng.NextBelow(static_cast<uint64_t>(n))));
      }
    };
    if (interleaved) {
      for (Timestamp t = 1; t < n; t += 2) write(t);
    } else {
      late(8);
    }
    EXPECT_TRUE(engine.FlushAll().ok());

    // The flushing table: late points plus points past the files. Every
    // flush temporary name the next flush could use is taken by a
    // directory, so the flush fails and leaves both tables flushing.
    late(4);
    for (Timestamp t = n; t < n + 300; ++t) write(t);
    std::vector<std::filesystem::path> blockers;
    for (int seq = 0; seq < 64; ++seq) {
      blockers.push_back(std::filesystem::path(dir_) /
                         ("flush-0-" + std::to_string(seq) + ".bstf.tmp"));
      std::filesystem::create_directory(blockers.back());
    }
    EXPECT_FALSE(engine.FlushAll().ok());
    for (const auto& b : blockers) std::filesystem::remove(b);
    EXPECT_GT(engine.GetMetricsSnapshot().shards[0].flushing_tables, 0u);

    // The working tables.
    late(4);
    for (Timestamp t = n + 300; t < n + 500; ++t) write(t);

    std::vector<std::pair<Timestamp, Timestamp>> ranges = {
        {0, n + 600}, {-5, n - 1}, {100, n + 350}, {n + 10, n + 20}};
    for (int i = 0; i < 16; ++i) {
      const Timestamp a = static_cast<Timestamp>(rng.NextBelow(n + 500));
      const Timestamp b = static_cast<Timestamp>(rng.NextBelow(n + 500));
      ranges.emplace_back(std::min(a, b), std::max(a, b));
    }
    const uint64_t folded_before = engine.GetMetricsSnapshot().agg_pages_folded;
    for (const auto& [t_min, t_max] : ranges) {
      const std::string what = tag + " [" + std::to_string(t_min) + "," +
                               std::to_string(t_max) + "]";
      std::vector<TvPairDouble> got;
      EXPECT_TRUE(engine.Query("s", t_min, t_max, &got).ok()) << what;
      std::vector<Timestamp> ts;
      std::vector<double> vs;
      for (auto it = last_write.lower_bound(t_min);
           it != last_write.end() && it->first <= t_max; ++it) {
        ts.push_back(it->first);
        vs.push_back(it->second);
      }
      EXPECT_EQ(got.size(), ts.size()) << what;
      for (size_t i = 0; i < std::min(got.size(), ts.size()); ++i) {
        if (got[i].t != ts[i] ||
            std::memcmp(&got[i].v, &vs[i], sizeof(double)) != 0) {
          ADD_FAILURE() << what << ": first mismatch at t=" << ts[i];
          break;
        }
      }

      const RefAgg want = BruteForce(ts, vs, t_min, t_max);
      TsFileReader::RangeStats agg;
      bool used_fast = true;
      EXPECT_TRUE(
          engine.AggregateFast("s", t_min, t_max, &agg, &used_fast).ok())
          << what;
      EXPECT_EQ(agg.count, want.count) << what;
      if (t_min == 0 && t_max == n + 600) {
        EXPECT_FALSE(used_fast) << what << ": late points are merged";
      }
      if (want.count == 0) continue;
      ExpectSameValue(agg.min, want.min, what + " min");
      ExpectSameValue(agg.max, want.max, what + " max");
      EXPECT_NEAR(agg.sum, want.sum, 1e-9 * std::max(1.0, std::abs(want.sum)))
          << what;
      EXPECT_EQ(agg.first_time, want.first_time) << what;
      EXPECT_EQ(agg.last_time, want.last_time) << what;
      ExpectSameValue(agg.first, want.first, what + " first");
      ExpectSameValue(agg.last, want.last, what + " last");
    }
    return engine.GetMetricsSnapshot().agg_pages_folded - folded_before;
  }

  std::filesystem::path dir_;
};

TEST_F(AggregateDifferentialTest, OrderedStreamStatsOn) {
  ConstantDelay delay(0.0);
  RunWorkload("ordered_on", delay, /*footer_stats=*/true,
              /*leave_tail_in_memory=*/false, 1);
}

TEST_F(AggregateDifferentialTest, OrderedStreamStatsOff) {
  ConstantDelay delay(0.0);
  RunWorkload("ordered_off", delay, /*footer_stats=*/false,
              /*leave_tail_in_memory=*/false, 2);
}

TEST_F(AggregateDifferentialTest, AbsNormalDisorderStatsOn) {
  AbsNormalDelay delay(1.0, 10.0);
  RunWorkload("absnormal_on", delay, /*footer_stats=*/true,
              /*leave_tail_in_memory=*/false, 3);
}

TEST_F(AggregateDifferentialTest, AbsNormalDisorderStatsOff) {
  AbsNormalDelay delay(1.0, 10.0);
  RunWorkload("absnormal_off", delay, /*footer_stats=*/false,
              /*leave_tail_in_memory=*/false, 4);
}

TEST_F(AggregateDifferentialTest, ExponentialDisorderStatsOn) {
  ExponentialDelay delay(0.05);
  RunWorkload("exp_on", delay, /*footer_stats=*/true,
              /*leave_tail_in_memory=*/false, 5);
}

TEST_F(AggregateDifferentialTest, HeavyTailDisorderStatsOn) {
  MixtureDelay delay(std::make_unique<ConstantDelay>(0.0),
                     std::make_unique<ExponentialDelay>(0.01), 0.05,
                     "calm+tail");
  RunWorkload("heavy_on", delay, /*footer_stats=*/true,
              /*leave_tail_in_memory=*/false, 6);
}

TEST_F(AggregateDifferentialTest, InMemoryTailForcesExactMergeTier) {
  AbsNormalDelay delay(1.0, 25.0);
  RunWorkload("tier3", delay, /*footer_stats=*/true,
              /*leave_tail_in_memory=*/true, 7);
}

// Timestamps rewritten inside one memtable: every tier must count each
// timestamp once, with its last write.
TEST_F(AggregateDifferentialTest, RewritesInsideOneMemtableStatsOn) {
  ConstantDelay delay(0.0);
  RunWorkload("rewrites_on", delay, /*footer_stats=*/true,
              /*leave_tail_in_memory=*/false, 8, /*rewrites=*/true);
}

TEST_F(AggregateDifferentialTest, RewritesInsideOneMemtableStatsOff) {
  ConstantDelay delay(0.0);
  RunWorkload("rewrites_off", delay, /*footer_stats=*/false,
              /*leave_tail_in_memory=*/false, 9, /*rewrites=*/true);
}

// Sealed files, a sparse unsequence file, a flushing table and a working
// table: the merge folds the pages no late point lands in from their
// headers and merges the rest, with exact answers.
TEST_F(AggregateDifferentialTest, MixedSourcesFoldCleanPagesFromStats) {
  EXPECT_GE(RunMixedSources("mixed", 21, /*interleaved=*/false), 1u);
}

// When every page has another source's points inside it, no page may
// fold from its header.
TEST_F(AggregateDifferentialTest, InterleavedSourcesFoldNoPageFromStats) {
  EXPECT_EQ(RunMixedSources("interleaved", 22, /*interleaved=*/true), 0u);
}

// A workload flushed without footer statistics (the seed BSTF1 format) and
// re-opened by a stats-aware engine must keep aggregating correctly through
// the decode fallback — the legacy-format compatibility pin.
TEST_F(AggregateDifferentialTest, LegacyStatlessFilesSurviveReopen) {
  // Ordered stream: every flushed file is a sequence file, so the planned
  // path (used_fast_path == true) must engage via the decode fallback —
  // disordered stat-less workloads are diffed by the *StatsOff cases above.
  const size_t n = 10'000;
  Rng rng(11);
  ConstantDelay delay(0.0);
  const std::vector<Timestamp> ts =
      GenerateArrivalOrderedTimestamps(n, delay, rng);
  dir_ = std::filesystem::temp_directory_path() /
         ("agg_diff_" + std::to_string(::getpid()) + "_legacy");
  std::filesystem::remove_all(dir_);

  EngineOptions opt;
  opt.data_dir = dir_.string();
  opt.sorter = SorterId::kBackward;
  opt.memtable_flush_threshold = 3'000;
  opt.async_flush = false;
  opt.footer_stats = false;  // write seed-format files
  std::vector<double> vs(ts.size());
  {
    StorageEngine writer_engine(opt);
    ASSERT_TRUE(writer_engine.Open().ok());
    for (size_t i = 0; i < ts.size(); ++i) {
      vs[i] = SignalValueAt(static_cast<size_t>(ts[i]));
      ASSERT_TRUE(writer_engine.Write("s", ts[i], vs[i]).ok());
    }
    ASSERT_TRUE(writer_engine.FlushAll().ok());
  }

  // Reopen with stats enabled: the existing files stay stat-less.
  opt.footer_stats = true;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  const RefAgg want = BruteForce(ts, vs, 0, static_cast<Timestamp>(n));
  TsFileReader::RangeStats got;
  bool used_fast = false;
  ASSERT_TRUE(
      engine.AggregateFast("s", 0, static_cast<Timestamp>(n), &got, &used_fast)
          .ok());
  EXPECT_TRUE(used_fast) << "decode fallback is still the planned path";
  ASSERT_EQ(got.count, want.count);
  EXPECT_DOUBLE_EQ(got.min, want.min);
  EXPECT_DOUBLE_EQ(got.max, want.max);
  EXPECT_NEAR(got.sum, want.sum, 1e-9 * std::abs(want.sum));
  // Every chunk was a stats miss: no BSTF2 footers exist to hit.
  const auto snap = engine.GetMetricsSnapshot();
  EXPECT_EQ(snap.agg_stats_hits, 0u);
  EXPECT_GT(snap.agg_stats_misses, 0u);
}

}  // namespace
}  // namespace backsort
