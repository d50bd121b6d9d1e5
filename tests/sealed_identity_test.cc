// Pins the sealed .bstf output of a fixed deterministic workload, byte for
// byte. The golden constants below were captured from the string-keyed
// engine as of PR 9 — before sensor interning — so they prove the
// interned-ID refactor changes nothing past the memtable: the flush path
// must keep emitting chunks in lexicographic sensor-name order with
// identical encodings, footers and file naming. Replication followers and
// external readers consume these files; their bytes are a compatibility
// contract.
//
// Everything the byte stream depends on is pinned explicitly (shard
// count, synchronous flush, threshold), so the ci.sh BACKSORT_SHARDS /
// BACKSORT_FLUSH_WORKERS matrix cannot perturb it.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "benchkit/digest.h"
#include "common/rng.h"
#include "engine/storage_engine.h"
#include "gtest/gtest.h"

namespace backsort {
namespace {

namespace fs = std::filesystem;

fs::path TestDir(const char* tag) {
  return fs::temp_directory_path() /
         (std::string("backsort_sealed_identity_") + tag);
}

/// Mixed-length IoTDB-ish names; several exceed the 15-byte SSO bound so
/// the digest also covers heap-allocated key handling.
std::string SensorName(size_t i) {
  switch (i % 3) {
    case 0:
      return "g.d" + std::to_string(i) + ".s" + std::to_string(i % 7);
    case 1:
      return "root.sgA.device" + std::to_string(i) + ".sensor" +
             std::to_string(i);
    default:
      return "m" + std::to_string(i);
  }
}

/// 257 sensors x 40 points, written one timestamp-round at a time with a
/// (r*17)%40 round permutation: after the first seal advances the
/// watermarks, later rounds with smaller timestamps land in unsequence
/// memtables, so both seq-*.bstf and unseq-*.bstf files are produced.
/// `per_point` feeds every point through its own Write call instead of
/// 61-span WriteMulti batches, so seals fire mid-round at the exact
/// threshold point rather than after a whole batch.
void RunWorkload(StorageEngine* engine, bool per_point = false) {
  constexpr size_t kSensors = 257;
  constexpr size_t kRounds = 40;
  std::vector<std::string> names;
  names.reserve(kSensors);
  for (size_t s = 0; s < kSensors; ++s) names.push_back(SensorName(s));

  std::vector<TvPairDouble> pts(kSensors);
  std::vector<SensorSpanDouble> spans(kSensors);
  for (size_t r = 0; r < kRounds; ++r) {
    const Timestamp t = static_cast<Timestamp>((r * 17) % kRounds);
    for (size_t s = 0; s < kSensors; ++s) {
      pts[s] = {t, static_cast<double>(s) * 4096.0 + static_cast<double>(t)};
      spans[s] = {&names[s], &pts[s], 1};
    }
    if (per_point) {
      for (size_t s = 0; s < kSensors; ++s) {
        ASSERT_TRUE(engine->Write(names[s], pts[s].t, pts[s].v).ok());
      }
      continue;
    }
    // Uneven chunking (61 spans per call) exercises batch grouping.
    for (size_t off = 0; off < kSensors; off += 61) {
      const size_t n = std::min<size_t>(61, kSensors - off);
      ASSERT_TRUE(engine->WriteMulti(&spans[off], n, nullptr).ok());
    }
  }
  ASSERT_TRUE(engine->FlushAll().ok());
}

struct SealedDigest {
  uint64_t file_bytes = bench::kFnvBasis;  ///< all .bstf bytes, name order
  uint64_t queries = bench::kFnvBasis;     ///< all query results, chained
  size_t files = 0;
  size_t points = 0;
};

SealedDigest DigestEngineOutput(StorageEngine* engine, const fs::path& dir) {
  SealedDigest d;
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".bstf") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  d.files = files.size();
  for (const fs::path& f : files) {
    // Fold the (stable) file name too: a renamed-but-identical stream
    // should fail the pin.
    d.file_bytes =
        bench::FnvBytes(f.filename().string().data(),
                        f.filename().string().size(), d.file_bytes);
    d.file_bytes = bench::FnvFile(f.string(), d.file_bytes);
  }
  for (size_t s = 0; s < 257; ++s) {
    const uint64_t q = bench::QueryDigest(engine, SensorName(s), &d.points);
    d.queries = bench::FnvBytes(&q, sizeof(q), d.queries);
  }
  return d;
}

TEST(SealedIdentity, BytesMatchPreInterningGolden) {
  const fs::path dir = TestDir("golden");
  fs::remove_all(dir);

  EngineOptions opt;
  opt.data_dir = dir.string();
  opt.shard_count = 3;
  opt.async_flush = false;          // deterministic seal->flush interleaving
  opt.memtable_flush_threshold = 3'000;  // ~1000/shard: several seal rounds
  opt.footer_stats = true;

  SealedDigest d;
  {
    StorageEngine engine(opt);
    ASSERT_TRUE(engine.Open().ok());
    RunWorkload(&engine);
    d = DigestEngineOutput(&engine, dir);
  }
  fs::remove_all(dir);

  // Captured from the pre-interning engine (see file comment). If this
  // fails after an intentional format change, recapture — but an
  // interning/memtable refactor must never get here.
  constexpr uint64_t kGoldenFileBytes = 0x4513703ceb73b0abull;
  constexpr uint64_t kGoldenQueries = 0xa683a956a590e3e7ull;
  constexpr size_t kGoldenFiles = 12;
  constexpr size_t kGoldenPoints = 257 * 40;

  EXPECT_EQ(d.points, kGoldenPoints);
  EXPECT_EQ(d.files, kGoldenFiles) << "sealed file count changed";
  EXPECT_EQ(d.file_bytes, kGoldenFileBytes)
      << "sealed byte stream diverged; actual 0x" << std::hex << d.file_bytes;
  EXPECT_EQ(d.queries, kGoldenQueries)
      << "query results diverged; actual 0x" << std::hex << d.queries;
}

// Same workload, stat-less BSTF1 footers — covers the other on-disk
// format the flush path can emit.
TEST(SealedIdentity, Bstf1BytesMatchPreInterningGolden) {
  const fs::path dir = TestDir("golden_v1");
  fs::remove_all(dir);

  EngineOptions opt;
  opt.data_dir = dir.string();
  opt.shard_count = 3;
  opt.async_flush = false;
  opt.memtable_flush_threshold = 3'000;
  opt.footer_stats = false;

  SealedDigest d;
  {
    StorageEngine engine(opt);
    ASSERT_TRUE(engine.Open().ok());
    RunWorkload(&engine);
    d = DigestEngineOutput(&engine, dir);
  }
  fs::remove_all(dir);

  constexpr uint64_t kGoldenFileBytes = 0xd1992864828c106aull;
  EXPECT_EQ(d.file_bytes, kGoldenFileBytes)
      << "sealed byte stream diverged; actual 0x" << std::hex << d.file_bytes;
}

// Same workload fed point by point through Write. The goldens were
// captured while Write still had its own per-point shard path; Write is
// now a one-point group commit, and this pins that its seal points and
// sealed bytes did not move.
TEST(SealedIdentity, PerPointWriteMatchesGolden) {
  const fs::path dir = TestDir("golden_per_point");
  fs::remove_all(dir);

  EngineOptions opt;
  opt.data_dir = dir.string();
  opt.shard_count = 3;
  opt.async_flush = false;
  opt.memtable_flush_threshold = 3'000;
  opt.footer_stats = true;

  SealedDigest d;
  {
    StorageEngine engine(opt);
    ASSERT_TRUE(engine.Open().ok());
    RunWorkload(&engine, /*per_point=*/true);
    d = DigestEngineOutput(&engine, dir);
  }
  fs::remove_all(dir);

  constexpr uint64_t kGoldenFileBytes = 0xcdf38fdfd31cd384ull;
  constexpr uint64_t kGoldenQueries = 0xa683a956a590e3e7ull;
  constexpr size_t kGoldenFiles = 12;

  EXPECT_EQ(d.points, size_t{257 * 40});
  EXPECT_EQ(d.files, kGoldenFiles) << "sealed file count changed";
  EXPECT_EQ(d.file_bytes, kGoldenFileBytes)
      << "sealed byte stream diverged; actual 0x" << std::hex << d.file_bytes;
  EXPECT_EQ(d.queries, kGoldenQueries)
      << "query results diverged; actual 0x" << std::hex << d.queries;
}

// The golden workload, then a full Compact() down to one file: pins the
// bytes the streaming compaction merge writes (page split, LWW survivors,
// recomputed footer statistics and the generation-suffixed output name),
// so a change to how compaction reads its inputs cannot move its output.
TEST(SealedIdentity, CompactedBytesMatchGolden) {
  const fs::path dir = TestDir("golden_compacted");
  fs::remove_all(dir);

  EngineOptions opt;
  opt.data_dir = dir.string();
  opt.shard_count = 3;
  opt.async_flush = false;
  opt.memtable_flush_threshold = 3'000;
  opt.footer_stats = true;
  opt.compaction_max_fanin = 8;  // 12 files: 8-way, 4-way, then 2-way

  SealedDigest d;
  {
    StorageEngine engine(opt);
    ASSERT_TRUE(engine.Open().ok());
    RunWorkload(&engine);
    ASSERT_TRUE(engine.Compact().ok());
    d = DigestEngineOutput(&engine, dir);
  }
  fs::remove_all(dir);

  // Some pages overlap another page's interval but hold no timestamp of
  // it, so the merge copies them: their page boundaries are kept.
  constexpr uint64_t kGoldenFileBytes = 0x571c955fc55de214ull;
  constexpr uint64_t kGoldenQueries = 0xa683a956a590e3e7ull;

  EXPECT_EQ(d.points, size_t{257 * 40});
  EXPECT_EQ(d.files, 1u) << "compaction left more than one file";
  EXPECT_EQ(d.file_bytes, kGoldenFileBytes)
      << "compacted byte stream diverged; actual 0x" << std::hex
      << d.file_bytes;
  EXPECT_EQ(d.queries, kGoldenQueries)
      << "query results diverged; actual 0x" << std::hex << d.queries;
}

// Differential: a flush of a memtable holding every timestamp twice seals
// the same bytes whichever sorter runs. Timsort keeps equal timestamps in
// arrival order; Backward-Sort's stable blocks must too, and an unstable
// sorter (Quicksort, or Backward with the paper's Quicksort blocks) must
// have its ties re-sorted into that order before encoding.
TEST(SealedIdentity, TiedFlushBytesAreSorterIndependent) {
  auto seal = [](const char* tag, SorterId sorter,
                 BackwardSortOptions::BlockSorter block) {
    const fs::path dir = TestDir(tag);
    fs::remove_all(dir);
    EngineOptions opt;
    opt.data_dir = dir.string();
    opt.shard_count = 1;
    opt.async_flush = false;
    opt.memtable_flush_threshold = 1'000'000;  // one memtable, one file
    opt.sorter = sorter;
    opt.backward_options.block_sorter = block;
    uint64_t digest = bench::kFnvBasis;
    {
      StorageEngine engine(opt);
      EXPECT_TRUE(engine.Open().ok());
      Rng rng(41);
      for (size_t s = 0; s < 4; ++s) {
        const std::string name = SensorName(s);
        std::vector<TvPairDouble> batch;
        for (Timestamp t = 0; t < 6'000; ++t) {
          // Disordered arrivals, each timestamp written twice with
          // different values so a swapped tie changes the encoded bytes.
          const Timestamp late = std::max<Timestamp>(
              t - static_cast<Timestamp>(rng.NextBelow(51)), 0);
          batch.push_back({late, static_cast<double>(2 * t)});
          batch.push_back({late, static_cast<double>(2 * t + 1)});
        }
        EXPECT_TRUE(engine.WriteBatch(name, batch).ok());
      }
      EXPECT_TRUE(engine.FlushAll().ok());
      EXPECT_EQ(engine.sealed_file_count(), 1u);
      for (const auto& e : fs::directory_iterator(dir)) {
        if (e.path().extension() == ".bstf") {
          digest = bench::FnvFile(e.path().string(), digest);
        }
      }
    }
    fs::remove_all(dir);
    return digest;
  };
  using Block = BackwardSortOptions::BlockSorter;
  const uint64_t tim = seal("tied_tim", SorterId::kTim, Block::kStable);
  EXPECT_EQ(seal("tied_back", SorterId::kBackward, Block::kStable), tim);
  EXPECT_EQ(seal("tied_back_quick", SorterId::kBackward, Block::kQuick), tim);
  EXPECT_EQ(seal("tied_quick", SorterId::kQuick, Block::kStable), tim);
}

}  // namespace
}  // namespace backsort
