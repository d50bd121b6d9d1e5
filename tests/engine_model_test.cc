// Model-based integration test: a random interleaving of writes, queries,
// flushes, compactions and restarts is checked step by step against an
// in-memory reference model (map from timestamp to last written value).
// This exercises the full stack — separation policy, WAL + recovery,
// flush sort/encode, TsFile scans, k-way dedup merge — under one oracle.

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/storage_engine.h"

namespace backsort {
namespace {

template <typename Param>
class ModelTestBase : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           ("engine_model_" + std::to_string(::getpid()) + "_" +
            std::string(info->test_suite_name()) + "_" + info->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

EngineOptions ModelOptions(const std::string& dir, SorterId sorter) {
  EngineOptions opt;
  opt.data_dir = dir;
  // Last-write-wins must be exact under every sorter, even for duplicate
  // timestamps that land in the same memtable.
  opt.sorter = sorter;
  opt.memtable_flush_threshold = 700;  // frequent flushes
  opt.async_flush = false;             // deterministic interleaving
  return opt;
}

void RunModel(SorterId sorter, uint64_t seed, const std::string& dir) {
  Rng rng(seed * 7919 + 13);
  auto engine = std::make_unique<StorageEngine>(ModelOptions(dir, sorter));
  ASSERT_TRUE(engine->Open().ok());

  const std::vector<std::string> sensors = {"a", "b"};
  std::map<std::string, std::map<Timestamp, double>> model;

  constexpr int kOps = 4000;
  constexpr Timestamp kTimeSpace = 2500;  // small → many duplicates
  Timestamp clock = 0;

  for (int op = 0; op < kOps; ++op) {
    const uint64_t dice = rng.NextBelow(100);
    if (dice < 80) {
      // Write: mostly advancing timestamps with occasional rewrites of old
      // ones (exercising separation + dedup) and of recent ones, which
      // land in the memtable still holding the first write.
      const std::string& sensor = sensors[rng.NextBelow(sensors.size())];
      Timestamp t;
      const uint64_t kind = rng.NextBelow(8);
      if (kind < 2) {
        t = static_cast<Timestamp>(rng.NextBelow(kTimeSpace));  // straggler
      } else if (kind == 2) {
        const Timestamp back = static_cast<Timestamp>(rng.NextBelow(16));
        t = std::max<Timestamp>(clock - back, 0);  // recent rewrite
      } else {
        clock = std::min<Timestamp>(clock + 1 +
                                        static_cast<Timestamp>(rng.NextBelow(3)),
                                    kTimeSpace - 1);
        t = clock;
      }
      const double v = static_cast<double>(rng.NextBelow(1'000'000));
      ASSERT_TRUE(engine->Write(sensor, t, v).ok());
      model[sensor][t] = v;
    } else if (dice < 92) {
      // Query a random range and compare with the model.
      const std::string& sensor = sensors[rng.NextBelow(sensors.size())];
      Timestamp lo = static_cast<Timestamp>(rng.NextBelow(kTimeSpace));
      Timestamp hi = static_cast<Timestamp>(rng.NextBelow(kTimeSpace));
      if (lo > hi) std::swap(lo, hi);
      std::vector<TvPairDouble> out;
      ASSERT_TRUE(engine->Query(sensor, lo, hi, &out).ok());
      std::vector<TvPairDouble> expect;
      const auto& m = model[sensor];
      for (auto it = m.lower_bound(lo); it != m.end() && it->first <= hi;
           ++it) {
        expect.push_back({it->first, it->second});
      }
      ASSERT_EQ(out.size(), expect.size()) << "op " << op;
      for (size_t i = 0; i < expect.size(); ++i) {
        ASSERT_EQ(out[i].t, expect[i].t) << "op " << op << " i " << i;
        ASSERT_DOUBLE_EQ(out[i].v, expect[i].v)
            << "op " << op << " t=" << out[i].t;
      }
    } else if (dice < 96) {
      ASSERT_TRUE(engine->FlushAll().ok());
    } else if (dice < 98) {
      ASSERT_TRUE(engine->Compact().ok());
    } else {
      // Restart: tear the engine down (unflushed data only in WAL) and
      // recover.
      engine.reset();
      engine = std::make_unique<StorageEngine>(ModelOptions(dir, sorter));
      ASSERT_TRUE(engine->Open().ok()) << "op " << op;
    }
  }

  // Final full-range verification per sensor.
  for (const std::string& sensor : sensors) {
    std::vector<TvPairDouble> out;
    ASSERT_TRUE(engine->Query(sensor, 0, kTimeSpace, &out).ok());
    ASSERT_EQ(out.size(), model[sensor].size()) << sensor;
    size_t i = 0;
    for (const auto& [t, v] : model[sensor]) {
      ASSERT_EQ(out[i].t, t) << sensor;
      ASSERT_DOUBLE_EQ(out[i].v, v) << sensor << " t=" << t;
      ++i;
    }
  }
}

class EngineModelTest : public ModelTestBase<uint64_t> {};

TEST_P(EngineModelTest, RandomOpsMatchReferenceModel) {
  RunModel(SorterId::kTim, GetParam(), dir_.string());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineModelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// The same model under Backward-Sort (stable blocks, no tie check) and
// Quicksort (unstable, so the tie check and its stable re-sort run).
class EngineModelSorterTest
    : public ModelTestBase<std::tuple<SorterId, uint64_t>> {};

TEST_P(EngineModelSorterTest, RandomOpsMatchReferenceModel) {
  RunModel(std::get<0>(GetParam()), std::get<1>(GetParam()), dir_.string());
}

INSTANTIATE_TEST_SUITE_P(
    Sorters, EngineModelSorterTest,
    ::testing::Combine(::testing::Values(SorterId::kBackward,
                                         SorterId::kQuick),
                       ::testing::Values(1, 2, 3, 4, 5, 6)),
    [](const ::testing::TestParamInfo<std::tuple<SorterId, uint64_t>>& info) {
      return SorterName(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace backsort
