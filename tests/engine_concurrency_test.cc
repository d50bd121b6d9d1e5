// Concurrency test for the sharded engine: N writer threads ingest
// disordered streams (each thread its own sensor, plus all threads
// interleaving on one shared sensor) while reader threads issue
// Query/GetLatest and a flusher thread calls FlushAll, over a 4-shard
// engine with a 2-worker flush pool. After the dust settles, every sensor
// must hold exactly its written point set — no lost, duplicated or
// corrupted points. Run under ThreadSanitizer via
// `cmake -DBACKSORT_SANITIZE=thread` (see tools/ci.sh).

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "disorder/series_generator.h"
#include "engine/storage_engine.h"

namespace backsort {
namespace {

class EngineConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("engine_concurrency_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  EngineOptions Options(size_t shards, size_t flush_workers) {
    EngineOptions opt;
    opt.data_dir = dir_.string();
    // Timsort is stable, making last-write-wins exact for the duplicate
    // timestamps this test deliberately avoids writing; stability keeps
    // the oracle simple.
    opt.sorter = SorterId::kTim;
    opt.memtable_flush_threshold = 8'000;
    opt.shard_count = shards;
    opt.flush_workers = flush_workers;
    return opt;
  }

  std::filesystem::path dir_;
};

/// Drives `writers` threads against an engine and verifies no point is
/// lost or duplicated, per sensor and on the shared sensor.
void RunWritersWithConcurrentReaders(StorageEngine* engine, size_t writers,
                                     size_t points_per_writer) {
  const std::string shared_sensor = "root.sg.shared";
  auto own_sensor = [](size_t w) {
    return "root.sg.w" + std::to_string(w);
  };
  // Each writer's value encodes (writer, timestamp) so corruption and
  // cross-sensor mixups are detectable, not just count drift.
  auto value_of = [](size_t w, Timestamp t) {
    return static_cast<double>(w * 1'000'000 + static_cast<size_t>(t));
  };

  std::atomic<bool> done{false};
  std::atomic<size_t> queries_ok{0};

  std::vector<std::thread> threads;
  for (size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      // Disordered private stream: unique timestamps 0..n-1 in a
      // delay-shuffled arrival order.
      Rng rng(100 + w);
      AbsNormalDelay delay(1, 25);
      const auto ts =
          GenerateArrivalOrderedTimestamps(points_per_writer, delay, rng);
      const std::string sensor = own_sensor(w);
      for (size_t i = 0; i < ts.size(); ++i) {
        ASSERT_TRUE(engine->Write(sensor, ts[i], value_of(w, ts[i])).ok());
        // Shared sensor: strided timestamps keep writer point sets
        // disjoint, so the final count pins lost/duplicated points.
        const Timestamp shared_t =
            static_cast<Timestamp>(i * writers + w);
        ASSERT_TRUE(
            engine->Write(shared_sensor, shared_t, value_of(w, shared_t))
                .ok());
      }
    });
  }

  // Reader: full-range queries must always be sorted and hold unique,
  // uncorrupted points.
  threads.emplace_back([&] {
    size_t round = 0;
    std::vector<TvPairDouble> out;
    while (!done.load()) {
      const size_t w = round++ % writers;
      ASSERT_TRUE(
          engine->Query(own_sensor(w), 0, 1'000'000'000, &out).ok());
      for (size_t i = 0; i < out.size(); ++i) {
        if (i > 0) {
          ASSERT_LT(out[i - 1].t, out[i].t);
        }
        ASSERT_DOUBLE_EQ(out[i].v, value_of(w, out[i].t));
      }
      queries_ok.fetch_add(1);
    }
  });

  // Latest-point reader over the shared sensor.
  threads.emplace_back([&] {
    TvPairDouble last;
    while (!done.load()) {
      Status st = engine->GetLatest(shared_sensor, &last);
      if (st.ok()) {
        const size_t w = static_cast<size_t>(last.t) % writers;
        ASSERT_DOUBLE_EQ(last.v, value_of(w, last.t));
      } else {
        ASSERT_TRUE(st.IsNotFound());
      }
      std::this_thread::yield();
    }
  });

  // Flusher: overlaps seal/flush/wait with the writers.
  threads.emplace_back([&] {
    while (!done.load()) {
      ASSERT_TRUE(engine->FlushAll().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  for (size_t w = 0; w < writers; ++w) threads[w].join();
  done.store(true);
  for (size_t i = writers; i < threads.size(); ++i) threads[i].join();
  EXPECT_GT(queries_ok.load(), 0u);

  ASSERT_TRUE(engine->FlushAll().ok());

  // Oracle: every private sensor holds exactly timestamps 0..n-1 with its
  // writer's values; the shared sensor holds all writers' strided sets.
  std::vector<TvPairDouble> out;
  for (size_t w = 0; w < writers; ++w) {
    ASSERT_TRUE(
        engine->Query(own_sensor(w), 0, 1'000'000'000, &out).ok());
    ASSERT_EQ(out.size(), points_per_writer) << "sensor " << own_sensor(w);
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i].t, static_cast<Timestamp>(i));
      ASSERT_DOUBLE_EQ(out[i].v, value_of(w, out[i].t));
    }
  }
  ASSERT_TRUE(engine->Query(shared_sensor, 0, 1'000'000'000, &out).ok());
  ASSERT_EQ(out.size(), writers * points_per_writer);
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i].t, static_cast<Timestamp>(i));
    const size_t w = i % writers;
    ASSERT_DOUBLE_EQ(out[i].v, value_of(w, out[i].t));
  }
}

TEST_F(EngineConcurrencyTest, ShardedEngineFourWriters) {
  StorageEngine engine(Options(/*shards=*/4, /*flush_workers=*/2));
  ASSERT_TRUE(engine.Open().ok());
  EXPECT_EQ(engine.shard_count(), 4u);
  RunWritersWithConcurrentReaders(&engine, /*writers=*/4,
                                  /*points_per_writer=*/6'000);
  const EngineMetricsSnapshot snap = engine.GetMetricsSnapshot();
  EXPECT_EQ(snap.shards.size(), 4u);
  EXPECT_GT(snap.total_completed_flushes(), 0u);
  EXPECT_EQ(snap.total_queued_flushes(), 0u);
  EXPECT_GT(snap.sealed_files, 0u);
}

TEST_F(EngineConcurrencyTest, SingleShardStillCorrectUnderContention) {
  StorageEngine engine(Options(/*shards=*/1, /*flush_workers=*/1));
  ASSERT_TRUE(engine.Open().ok());
  EXPECT_EQ(engine.shard_count(), 1u);
  RunWritersWithConcurrentReaders(&engine, /*writers=*/4,
                                  /*points_per_writer=*/3'000);
}

// Readers race writers, flushes AND compactions. Compact retires sealed
// files while queries hold snapshot refs to them — the refcounted
// registry must keep those files readable (and their cache entries
// coherent) until the last reader drops them.
TEST_F(EngineConcurrencyTest, ReadersRaceCompaction) {
  EngineOptions opt = Options(/*shards=*/2, /*flush_workers=*/2);
  opt.memtable_flush_threshold = 2'000;  // many small files to compact
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());

  constexpr size_t kWriters = 3;
  constexpr size_t kPoints = 5'000;
  std::atomic<bool> done{false};
  std::atomic<size_t> compactions{0};
  auto sensor_of = [](size_t w) { return "root.sg.c" + std::to_string(w); };
  auto value_of = [](size_t w, Timestamp t) {
    return static_cast<double>(w * 1'000'000 + static_cast<size_t>(t));
  };

  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(200 + w);
      AbsNormalDelay delay(1, 40);
      const auto ts = GenerateArrivalOrderedTimestamps(kPoints, delay, rng);
      for (const Timestamp t : ts) {
        ASSERT_TRUE(engine.Write(sensor_of(w), t, value_of(w, t)).ok());
      }
    });
  }
  // Reader thread per writer sensor: results always sorted + uncorrupted,
  // even while the files underneath are being swapped by Compact.
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::vector<TvPairDouble> out;
      while (!done.load()) {
        ASSERT_TRUE(engine.Query(sensor_of(w), 0, 1'000'000'000, &out).ok());
        for (size_t i = 0; i < out.size(); ++i) {
          if (i > 0) {
            ASSERT_LT(out[i - 1].t, out[i].t);
          }
          ASSERT_DOUBLE_EQ(out[i].v, value_of(w, out[i].t));
        }
      }
    });
  }
  // Compactor: continuously merges sealed files under the readers.
  threads.emplace_back([&] {
    while (!done.load()) {
      ASSERT_TRUE(engine.FlushAll().ok());
      ASSERT_TRUE(engine.Compact().ok());
      compactions.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  for (size_t w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
  EXPECT_GT(compactions.load(), 0u);

  ASSERT_TRUE(engine.FlushAll().ok());
  ASSERT_TRUE(engine.Compact().ok());
  std::vector<TvPairDouble> out;
  for (size_t w = 0; w < kWriters; ++w) {
    ASSERT_TRUE(engine.Query(sensor_of(w), 0, 1'000'000'000, &out).ok());
    ASSERT_EQ(out.size(), kPoints);
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i].t, static_cast<Timestamp>(i));
      ASSERT_DOUBLE_EQ(out[i].v, value_of(w, out[i].t));
    }
  }
}

// Last-write-wins under concurrency: one writer rewrites the same
// timestamp window in rounds of increasing value while readers observe.
// Any observed value must be a plausible LWW state: values along one
// query are from at most two adjacent rounds (the one being written and
// the previous), never older.
TEST_F(EngineConcurrencyTest, RewriteRoundsStayLastWriteWins) {
  EngineOptions opt = Options(/*shards=*/1, /*flush_workers=*/1);
  opt.memtable_flush_threshold = 500;  // rewrites spill to unsequence files
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());

  constexpr Timestamp kWindow = 400;
  constexpr int kRounds = 30;
  const std::string sensor = "root.sg.lww";
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (int round = 1; round <= kRounds; ++round) {
      for (Timestamp t = 0; t < kWindow; ++t) {
        ASSERT_TRUE(
            engine.Write(sensor, t, static_cast<double>(round)).ok());
      }
      if (round % 7 == 0) {
        ASSERT_TRUE(engine.FlushAll().ok());
      }
    }
    done.store(true);
  });
  std::thread reader([&] {
    std::vector<TvPairDouble> out;
    while (!done.load()) {
      ASSERT_TRUE(engine.Query(sensor, 0, kWindow, &out).ok());
      if (out.empty()) continue;
      double lo = out[0].v, hi = out[0].v;
      for (size_t i = 0; i < out.size(); ++i) {
        if (i > 0) {
          ASSERT_LT(out[i - 1].t, out[i].t);
          // The writer sweeps t ascending, so along one snapshot the
          // round number never increases with t.
          ASSERT_GE(out[i - 1].v, out[i].v);
        }
        lo = std::min(lo, out[i].v);
        hi = std::max(hi, out[i].v);
      }
      // At most the in-progress round and its predecessor are visible.
      ASSERT_LE(hi - lo, 1.0);
    }
  });
  writer.join();
  reader.join();

  ASSERT_TRUE(engine.FlushAll().ok());
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query(sensor, 0, kWindow, &out).ok());
  ASSERT_EQ(out.size(), static_cast<size_t>(kWindow));
  for (const TvPairDouble& p : out) {
    ASSERT_DOUBLE_EQ(p.v, static_cast<double>(kRounds));
  }
}

// The batch-native path under fire: writers ship group-commit batches
// (private sensor plus a WriteMulti slice of a shared sensor) while
// readers query, a flusher drives FlushAll, and 2 pool workers flush the
// 4 shards' sealed memtables in parallel. TSan must see clean
// happens-before edges through the batch apply, the concurrent flushes'
// sort+encode over sealed memtables and the query snapshots.
TEST_F(EngineConcurrencyTest, BatchedWritersWithParallelFlush) {
  EngineOptions opt = Options(/*shards=*/4, /*flush_workers=*/2);
  opt.memtable_flush_threshold = 4'000;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());

  constexpr size_t kWriters = 4;
  constexpr size_t kPoints = 6'000;
  constexpr size_t kBatch = 250;
  const std::string shared_sensor = "root.sg.batch.shared";
  auto own_sensor = [](size_t w) {
    return "root.sg.batch.w" + std::to_string(w);
  };
  auto value_of = [](size_t w, Timestamp t) {
    return static_cast<double>(w * 1'000'000 + static_cast<size_t>(t));
  };

  std::atomic<bool> done{false};
  std::atomic<size_t> queries_ok{0};
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(300 + w);
      AbsNormalDelay delay(1, 25);
      const auto ts = GenerateArrivalOrderedTimestamps(kPoints, delay, rng);
      const std::string sensor = own_sensor(w);
      std::vector<TvPairDouble> own_batch;
      std::vector<TvPairDouble> shared_batch;
      for (size_t i = 0; i < ts.size(); ++i) {
        own_batch.push_back({ts[i], value_of(w, ts[i])});
        const auto shared_t = static_cast<Timestamp>(i * kWriters + w);
        shared_batch.push_back({shared_t, value_of(w, shared_t)});
        if (own_batch.size() == kBatch || i + 1 == ts.size()) {
          size_t applied = 0;
          ASSERT_TRUE(engine.WriteBatch(sensor, own_batch, &applied).ok());
          ASSERT_EQ(applied, own_batch.size());
          applied = 0;
          const SensorSpanDouble multi{&shared_sensor, shared_batch.data(),
                                       shared_batch.size()};
          ASSERT_TRUE(engine.WriteMulti(&multi, 1, &applied).ok());
          ASSERT_EQ(applied, shared_batch.size());
          own_batch.clear();
          shared_batch.clear();
        }
      }
    });
  }
  threads.emplace_back([&] {
    size_t round = 0;
    std::vector<TvPairDouble> out;
    while (!done.load()) {
      const size_t w = round++ % kWriters;
      ASSERT_TRUE(engine.Query(own_sensor(w), 0, 1'000'000'000, &out).ok());
      for (size_t i = 1; i < out.size(); ++i) {
        ASSERT_LT(out[i - 1].t, out[i].t);
        ASSERT_DOUBLE_EQ(out[i].v, value_of(w, out[i].t));
      }
      queries_ok.fetch_add(1);
    }
  });
  threads.emplace_back([&] {
    while (!done.load()) {
      ASSERT_TRUE(engine.FlushAll().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  for (size_t w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
  EXPECT_GT(queries_ok.load(), 0u);
  ASSERT_TRUE(engine.FlushAll().ok());

  std::vector<TvPairDouble> out;
  for (size_t w = 0; w < kWriters; ++w) {
    ASSERT_TRUE(engine.Query(own_sensor(w), 0, 1'000'000'000, &out).ok());
    ASSERT_EQ(out.size(), kPoints) << own_sensor(w);
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i].t, static_cast<Timestamp>(i));
      ASSERT_DOUBLE_EQ(out[i].v, value_of(w, out[i].t));
    }
  }
  ASSERT_TRUE(engine.Query(shared_sensor, 0, 1'000'000'000, &out).ok());
  ASSERT_EQ(out.size(), kWriters * kPoints);
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i].t, static_cast<Timestamp>(i));
    ASSERT_DOUBLE_EQ(out[i].v, value_of(i % kWriters, out[i].t));
  }
  const EngineMetricsSnapshot snap = engine.GetMetricsSnapshot();
  EXPECT_GT(snap.batch_writes, 0u);
  EXPECT_EQ(snap.batch_points, 2 * kWriters * kPoints);
  EXPECT_GT(snap.total_completed_flushes(), 0u);
}

TEST_F(EngineConcurrencyTest, ShardedStateSurvivesRestart) {
  constexpr size_t kWriters = 4;
  constexpr size_t kPoints = 4'000;
  {
    StorageEngine engine(Options(4, 2));
    ASSERT_TRUE(engine.Open().ok());
    RunWritersWithConcurrentReaders(&engine, kWriters, kPoints);
  }
  // Reopen with a different shard count: recovery re-routes sensors.
  StorageEngine engine(Options(2, 2));
  ASSERT_TRUE(engine.Open().ok());
  std::vector<TvPairDouble> out;
  for (size_t w = 0; w < kWriters; ++w) {
    ASSERT_TRUE(engine.Query("root.sg.w" + std::to_string(w), 0,
                             1'000'000'000, &out)
                    .ok());
    ASSERT_EQ(out.size(), kPoints);
  }
  ASSERT_TRUE(engine.Query("root.sg.shared", 0, 1'000'000'000, &out).ok());
  ASSERT_EQ(out.size(), kWriters * kPoints);
}

// The background compaction scheduler races writers, readers and the
// flush pool: tiered merges swap registry windows while queries hold
// snapshot refs and writers keep appending files. The oracle at the end
// pins every point; under TSan this also proves the scheduler's
// lock/shutdown protocol (compact_mu_ -> shard mutexes -> files_mu,
// scheduler stopped before the pool) is race-free.
TEST_F(EngineConcurrencyTest, BackgroundCompactionRacesIngestAndQueries) {
  EngineOptions opt = Options(/*shards=*/2, /*flush_workers=*/2);
  opt.memtable_flush_threshold = 2'000;  // many small files
  opt.compaction_enabled = true;
  opt.compaction_trigger_files = 2;
  opt.compaction_max_fanin = 4;
  opt.compaction_check_interval_ms = 5;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  ASSERT_TRUE(engine.compaction_enabled());

  constexpr size_t kWriters = 3;
  constexpr size_t kPoints = 5'000;
  std::atomic<bool> done{false};
  auto sensor_of = [](size_t w) { return "root.sg.bg" + std::to_string(w); };
  auto value_of = [](size_t w, Timestamp t) {
    return static_cast<double>(w * 1'000'000 + static_cast<size_t>(t));
  };

  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(300 + w);
      AbsNormalDelay delay(1, 40);
      const auto ts = GenerateArrivalOrderedTimestamps(kPoints, delay, rng);
      for (const Timestamp t : ts) {
        ASSERT_TRUE(engine.Write(sensor_of(w), t, value_of(w, t)).ok());
      }
    });
  }
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::vector<TvPairDouble> out;
      while (!done.load()) {
        ASSERT_TRUE(engine.Query(sensor_of(w), 0, 1'000'000'000, &out).ok());
        for (size_t i = 0; i < out.size(); ++i) {
          if (i > 0) {
            ASSERT_LT(out[i - 1].t, out[i].t);
          }
          ASSERT_DOUBLE_EQ(out[i].v, value_of(w, out[i].t));
        }
      }
    });
  }
  // Flusher: keeps sealing small files so the scheduler always has tier
  // runs to chew on while ingest is live.
  threads.emplace_back([&] {
    while (!done.load()) {
      ASSERT_TRUE(engine.FlushAll().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  for (size_t w = 0; w < kWriters; ++w) threads[w].join();
  // Pending flushes preempt the scheduler, so ingest can end before any
  // tick found the flush queue empty. Keep readers and the flusher racing
  // until a job lands (bounded), instead of stopping on a lost race.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.GetMetricsSnapshot().compaction_jobs == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  done.store(true);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  ASSERT_TRUE(engine.FlushAll().ok());
  const EngineMetricsSnapshot snap = engine.GetMetricsSnapshot();
  EXPECT_GT(snap.compaction_jobs, 0u);
  EXPECT_EQ(snap.compaction_failures, 0u);

  std::vector<TvPairDouble> out;
  for (size_t w = 0; w < kWriters; ++w) {
    ASSERT_TRUE(engine.Query(sensor_of(w), 0, 1'000'000'000, &out).ok());
    ASSERT_EQ(out.size(), kPoints);
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i].t, static_cast<Timestamp>(i));
      ASSERT_DOUBLE_EQ(out[i].v, value_of(w, out[i].t));
    }
  }
}

// 100k distinct sensors across 4 writer threads while readers query and
// flushes run: the per-shard interner grows (arena appends, hash rehashes)
// under the shard lock while flush workers read interner-owned name views
// lock-free and queries run Lookup — the full high-cardinality race
// surface. Under TSan this pins the contract that name bytes never move
// and that all interner mutation stays inside the shard mutex.
TEST_F(EngineConcurrencyTest, HighCardinalityInternerRaceSurface) {
  EngineOptions opt = Options(/*shards=*/4, /*flush_workers=*/2);
  opt.memtable_flush_threshold = 20'000;  // several flushes over the run
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());

  constexpr size_t kWriters = 4;
  constexpr size_t kSensorsPerWriter = 25'000;
  constexpr size_t kGroup = 200;  // sensors per WriteMulti call
  auto sensor_of = [](size_t w, size_t i) {
    return "root.card.w" + std::to_string(w) + ".s" + std::to_string(i);
  };

  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      // Names and points are reserved to one group, so the spans into
      // them stay valid while the group fills.
      std::vector<std::string> names;
      std::vector<TvPairDouble> points;
      std::vector<SensorSpanDouble> multi;
      names.reserve(kGroup);
      points.reserve(kGroup);
      for (size_t i = 0; i < kSensorsPerWriter; ++i) {
        names.push_back(sensor_of(w, i));
        points.push_back(
            {static_cast<Timestamp>(1 + (i % 7)), static_cast<double>(i)});
        multi.push_back({&names.back(), &points.back(), 1});
        if (multi.size() == kGroup || i + 1 == kSensorsPerWriter) {
          size_t applied = 0;
          ASSERT_TRUE(engine.WriteMulti(multi.data(), multi.size(), &applied)
                          .ok());
          ASSERT_EQ(applied, multi.size());
          names.clear();
          points.clear();
          multi.clear();
        }
      }
    });
  }
  // Readers race the interner growth: most lookups hit sensors that are
  // being interned concurrently by the writers (or don't exist yet).
  threads.emplace_back([&] {
    size_t round = 0;
    std::vector<TvPairDouble> out;
    while (!done.load()) {
      const size_t w = round % kWriters;
      const size_t i = (round * 131) % kSensorsPerWriter;
      ++round;
      Status st = engine.Query(sensor_of(w, i), 0, 100, &out);
      ASSERT_TRUE(st.ok());
      TvPairDouble last{};
      st = engine.GetLatest(sensor_of(w, i), &last);
      ASSERT_TRUE(st.ok() || st.IsNotFound());
    }
  });
  threads.emplace_back([&] {
    while (!done.load()) {
      ASSERT_TRUE(engine.FlushAll().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  });

  for (size_t w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
  ASSERT_TRUE(engine.FlushAll().ok());

  const EngineMetricsSnapshot snap = engine.GetMetricsSnapshot();
  size_t sensors = 0;
  for (const ShardMetricsSnapshot& shard : snap.shards) {
    sensors += shard.sensor_count;
  }
  EXPECT_EQ(sensors, kWriters * kSensorsPerWriter);

  // Spot-check: every 977th sensor of each writer answers with its point.
  std::vector<TvPairDouble> out;
  for (size_t w = 0; w < kWriters; ++w) {
    for (size_t i = 0; i < kSensorsPerWriter; i += 977) {
      ASSERT_TRUE(engine.Query(sensor_of(w, i), 0, 100, &out).ok());
      ASSERT_EQ(out.size(), 1u) << sensor_of(w, i);
      EXPECT_DOUBLE_EQ(out[0].v, static_cast<double>(i));
    }
  }
}

}  // namespace
}  // namespace backsort
