#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "benchkit/digest.h"
#include "common/rng.h"
#include "engine/lww_merge.h"
#include "tsfile/tsfile.h"

namespace backsort {
namespace {

/// The engine's stats sink (lww_merge.h) over `sensor`'s chunk in `path`:
/// the aggregate of [t_min, t_max], the pages it folded from their
/// headers, and the pages it decoded.
void FoldPages(const std::string& path, const std::string& sensor,
               Timestamp t_min, Timestamp t_max, RangeStats* stats,
               size_t* folded, uint64_t* decoded = nullptr) {
  FooterMap footer;
  ASSERT_TRUE(ReadTsFileFooter(path, &footer).ok());
  std::optional<PageReader> reader;
  ASSERT_TRUE(
      OpenPageReader(path, sensor, footer.at(sensor), nullptr, &reader).ok());
  std::vector<MergeCursor> cursors;
  cursors.emplace_back(&*reader, t_min, t_max);
  FoldTally tally;
  ASSERT_TRUE(MergeStats(cursors, t_min, t_max, stats, &tally).ok());
  EXPECT_FALSE(tally.merged) << "one chunk has no other source to merge";
  *folded = tally.pages_folded;
  if (decoded != nullptr) *decoded = reader->pages_decoded();
}

class TsFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tsfile_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(TsFileTest, WriteReadRoundTripF64) {
  const std::string path = Path("a.bstf");
  std::vector<Timestamp> ts;
  std::vector<double> values;
  for (int i = 0; i < 10000; ++i) {
    ts.push_back(i * 3);
    values.push_back(std::sin(i * 0.01) * 100);
  }
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer.WriteChunkF64("s1", ts, values).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  EXPECT_EQ(reader.Sensors(), std::vector<std::string>{"s1"});
  std::vector<Timestamp> got_ts;
  std::vector<double> got_values;
  ASSERT_TRUE(reader.ReadChunkF64("s1", &got_ts, &got_values).ok());
  EXPECT_EQ(got_ts, ts);
  EXPECT_EQ(got_values, values);
}

TEST_F(TsFileTest, WriteReadRoundTripI64MultiChunk) {
  const std::string path = Path("b.bstf");
  std::vector<Timestamp> ts1, ts2;
  std::vector<int64_t> v1, v2;
  for (int i = 0; i < 5000; ++i) {
    ts1.push_back(i);
    v1.push_back(i % 17);
    ts2.push_back(i * 2);
    v2.push_back(-i);
  }
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer.WriteChunkI64("alpha", ts1, v1).ok());
    ASSERT_TRUE(writer.WriteChunkI64("beta", ts2, v2).ok());
    ASSERT_TRUE(writer.Finish().ok());
    EXPECT_EQ(writer.chunk_count(), 2u);
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  ASSERT_EQ(reader.Sensors().size(), 2u);
  std::vector<Timestamp> got_ts;
  std::vector<int64_t> got_v;
  ASSERT_TRUE(reader.ReadChunkI64("beta", &got_ts, &got_v).ok());
  EXPECT_EQ(got_ts, ts2);
  EXPECT_EQ(got_v, v2);
  ASSERT_TRUE(reader.ReadChunkI64("alpha", &got_ts, &got_v).ok());
  EXPECT_EQ(got_v, v1);
}

TEST_F(TsFileTest, RejectsUnsortedChunk) {
  TsFileWriter writer(Path("c.bstf"));
  const std::vector<Timestamp> ts = {3, 1, 2};
  const std::vector<double> values = {1, 2, 3};
  EXPECT_TRUE(writer.WriteChunkF64("s", ts, values).IsInvalidArgument());
}

TEST_F(TsFileTest, RejectsSizeMismatch) {
  TsFileWriter writer(Path("d.bstf"));
  EXPECT_TRUE(
      writer.WriteChunkF64("s", {1, 2}, {1.0}).IsInvalidArgument());
}

TEST_F(TsFileTest, QueryRangePrunesAndFilters) {
  const std::string path = Path("e.bstf");
  std::vector<Timestamp> ts;
  std::vector<double> values;
  for (int i = 0; i < 100000; ++i) {
    ts.push_back(i);
    values.push_back(i * 0.5);
  }
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(
        writer.WriteChunkF64("s", ts, values, Encoding::kTs2Diff,
                             Encoding::kGorilla, /*points_per_page=*/1000)
            .ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  std::vector<Timestamp> got_ts;
  std::vector<double> got_values;
  ASSERT_TRUE(
      reader.QueryRangeF64("s", 54321, 55320, &got_ts, &got_values).ok());
  ASSERT_EQ(got_ts.size(), 1000u);
  EXPECT_EQ(got_ts.front(), 54321);
  EXPECT_EQ(got_ts.back(), 55320);
  for (size_t i = 0; i < got_ts.size(); ++i) {
    EXPECT_DOUBLE_EQ(got_values[i], got_ts[i] * 0.5);
  }
  // Empty range beyond the data.
  ASSERT_TRUE(
      reader.QueryRangeF64("s", 200000, 300000, &got_ts, &got_values).ok());
  EXPECT_TRUE(got_ts.empty());
}

TEST_F(TsFileTest, AggregateRangeUsesPageStats) {
  const std::string path = Path("agg.bstf");
  std::vector<Timestamp> ts;
  std::vector<double> values;
  for (int i = 0; i < 50'000; ++i) {
    ts.push_back(i);
    values.push_back(std::sin(i * 0.001) * 50 + i * 0.01);
  }
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer
                    .WriteChunkF64("s", ts, values, Encoding::kTs2Diff,
                                   Encoding::kGorilla, /*points_per_page=*/500)
                    .ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());

  // The page-statistics fold is the merge's stats sink; the reader's
  // full-decode aggregate is its reference.
  TsFileReader::RangeStats stats;
  size_t skipped = 0;
  FoldPages(path, "s", 1'234, 44'321, &stats, &skipped);
  TsFileReader::RangeStats decoded;
  ASSERT_TRUE(reader.AggregateRangeF64("s", 1'234, 44'321, &decoded).ok());
  // Ground truth by brute force.
  size_t count = 0;
  double sum = 0, min_v = 0, max_v = 0;
  bool first = true;
  for (int i = 1'234; i <= 44'321; ++i) {
    const double v = values[static_cast<size_t>(i)];
    if (first) {
      min_v = max_v = v;
      first = false;
    }
    min_v = std::min(min_v, v);
    max_v = std::max(max_v, v);
    sum += v;
    ++count;
  }
  EXPECT_EQ(stats.count, count);
  EXPECT_DOUBLE_EQ(stats.min, min_v);
  EXPECT_DOUBLE_EQ(stats.max, max_v);
  EXPECT_NEAR(stats.sum, sum, 1e-6 * std::abs(sum));
  EXPECT_EQ(stats.first_time, 1'234);
  EXPECT_DOUBLE_EQ(stats.first, values[1'234]);
  EXPECT_EQ(stats.last_time, 44'321);
  EXPECT_DOUBLE_EQ(stats.last, values[44'321]);
  // ~86 pages in range; all but the boundary + first/last ones fold from
  // statistics.
  EXPECT_GT(skipped, 70u);
  // The full decode sums in point order, like the brute force.
  EXPECT_EQ(decoded.count, count);
  EXPECT_EQ(decoded.min, min_v);
  EXPECT_EQ(decoded.max, max_v);
  EXPECT_EQ(decoded.sum, sum);
  EXPECT_EQ(decoded.first_time, 1'234);
  EXPECT_EQ(decoded.first, values[1'234]);
  EXPECT_EQ(decoded.last_time, 44'321);
  EXPECT_EQ(decoded.last, values[44'321]);
}

TEST_F(TsFileTest, AggregateRangeEmptyAndSinglePage) {
  const std::string path = Path("agg2.bstf");
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer.WriteChunkF64("s", {10, 20, 30}, {1.0, 2.0, 3.0}).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  TsFileReader::RangeStats stats;
  ASSERT_TRUE(reader.AggregateRangeF64("s", 100, 200, &stats).ok());
  EXPECT_EQ(stats.count, 0u);
  ASSERT_TRUE(reader.AggregateRangeF64("s", 15, 25, &stats).ok());
  EXPECT_EQ(stats.count, 1u);
  EXPECT_DOUBLE_EQ(stats.first, 2.0);
  EXPECT_DOUBLE_EQ(stats.last, 2.0);
}

TEST_F(TsFileTest, MissingSensorIsNotFound) {
  const std::string path = Path("f.bstf");
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer.WriteChunkF64("s", {1}, {1.0}).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  std::vector<Timestamp> ts;
  std::vector<double> values;
  EXPECT_TRUE(reader.ReadChunkF64("nope", &ts, &values).IsNotFound());
  DataType type;
  EXPECT_TRUE(reader.GetDataType("nope", &type).IsNotFound());
}

TEST_F(TsFileTest, TypeMismatchRejected) {
  const std::string path = Path("g.bstf");
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer.WriteChunkI64("s", {1}, {int64_t{5}}).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  std::vector<Timestamp> ts;
  std::vector<double> values;
  EXPECT_TRUE(reader.ReadChunkF64("s", &ts, &values).IsInvalidArgument());
}

TEST_F(TsFileTest, EmptyFileHasNoSensors) {
  const std::string path = Path("h.bstf");
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer.Finish().ok());
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  EXPECT_TRUE(reader.Sensors().empty());
}

// --- footer statistics (BSTF2) -----------------------------------------------

TEST_F(TsFileTest, FooterCarriesChunkValueStats) {
  const std::string path = Path("stats.bstf");
  std::vector<Timestamp> ts;
  std::vector<double> values;
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    ts.push_back(i);
    values.push_back(std::cos(i * 0.003) * 10 - i * 0.001);
    sum += values.back();
  }
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer.WriteChunkF64("s", ts, values).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  // The head magic identifies the file as v2.
  {
    std::ifstream f(path, std::ios::binary);
    char magic[5];
    f.read(magic, 5);
    EXPECT_EQ(std::string(magic, 5), "BSTF2");
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  const auto it = reader.Locators().find("s");
  ASSERT_NE(it, reader.Locators().end());
  const ChunkLocator& loc = it->second;
  EXPECT_TRUE(loc.has_stats);
  EXPECT_TRUE(loc.stats_usable());
  EXPECT_DOUBLE_EQ(loc.min_v, *std::min_element(values.begin(), values.end()));
  EXPECT_DOUBLE_EQ(loc.max_v, *std::max_element(values.begin(), values.end()));
  EXPECT_NEAR(loc.sum_v, sum, 1e-9 * std::abs(sum));
  EXPECT_DOUBLE_EQ(loc.first_v, values.front());
  EXPECT_DOUBLE_EQ(loc.last_v, values.back());
}

TEST_F(TsFileTest, StatlessModeWritesLegacyFormat) {
  const std::string path = Path("legacy.bstf");
  {
    TsFileWriter writer(path);
    writer.set_footer_stats(false);
    ASSERT_TRUE(writer.WriteChunkF64("s", {1, 2, 3}, {9.0, 7.0, 8.0}).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  {
    std::ifstream f(path, std::ios::binary);
    char magic[5];
    f.read(magic, 5);
    EXPECT_EQ(std::string(magic, 5), "BSTF1");
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  const ChunkLocator& loc = reader.Locators().at("s");
  EXPECT_FALSE(loc.has_stats);
  EXPECT_FALSE(loc.stats_usable());
  // The decode fallback still answers aggregates over the stat-less file.
  TsFileReader::RangeStats stats;
  ASSERT_TRUE(reader.AggregateRangeF64("s", 0, 10, &stats).ok());
  EXPECT_EQ(stats.count, 3u);
  EXPECT_DOUBLE_EQ(stats.min, 7.0);
  EXPECT_DOUBLE_EQ(stats.max, 9.0);
  EXPECT_DOUBLE_EQ(stats.sum, 24.0);
}

TEST_F(TsFileTest, ChunkAggregateFromLocatorMatchesReader) {
  const std::string path = Path("chunkagg.bstf");
  std::vector<Timestamp> ts;
  std::vector<double> values;
  for (int i = 0; i < 20'000; ++i) {
    ts.push_back(i * 2);  // strided so range endpoints land between samples
    values.push_back(std::sin(i * 0.01) * (i % 97));
  }
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer
                    .WriteChunkF64("s", ts, values, Encoding::kTs2Diff,
                                   Encoding::kGorilla, /*points_per_page=*/512)
                    .ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  const ChunkLocator& loc = reader.Locators().at("s");
  // The stats sink over the fd-based page reader (the engine's path:
  // directory derived with one pread, boundary pages read on demand, no
  // open TsFileReader) agrees with the reader's full decode.
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  auto directory = std::make_shared<PageDirectory>();
  ASSERT_TRUE(ReadPageDirectory(fd, "s", loc, directory.get()).ok());
  ::close(fd);
  EXPECT_EQ(directory->pages.size(), (20'000u + 511) / 512);
  PageReader pages(path, loc.offset, directory, /*bytes_read=*/0);
  TsFileReader::RangeStats via_loc, via_reader;
  std::vector<MergeCursor> cursors;
  cursors.emplace_back(&pages, 1'001, 30'000);
  FoldTally tally;
  ASSERT_TRUE(MergeStats(cursors, 1'001, 30'000, &via_loc, &tally).ok());
  // Only the two boundary pages were read and decoded.
  EXPECT_EQ(pages.pages_decoded(), 2u);
  ASSERT_TRUE(reader.AggregateRangeF64("s", 1'001, 30'000, &via_reader).ok());
  EXPECT_EQ(via_loc.count, via_reader.count);
  EXPECT_DOUBLE_EQ(via_loc.min, via_reader.min);
  EXPECT_DOUBLE_EQ(via_loc.max, via_reader.max);
  EXPECT_NEAR(via_loc.sum, via_reader.sum, 1e-9 * std::abs(via_reader.sum));
  EXPECT_EQ(via_loc.first_time, via_reader.first_time);
  EXPECT_EQ(via_loc.last_time, via_reader.last_time);
}

TEST_F(TsFileTest, NaNValuesExcludedFromFooterStats) {
  const std::string path = Path("nan.bstf");
  const double nan = std::nan("");
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(
        writer.WriteChunkF64("mixed", {1, 2, 3, 4}, {nan, 2.0, 6.0, nan}).ok());
    ASSERT_TRUE(writer.WriteChunkF64("allnan", {1, 2}, {nan, nan}).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  const ChunkLocator& mixed = reader.Locators().at("mixed");
  EXPECT_TRUE(mixed.stats_usable());
  EXPECT_DOUBLE_EQ(mixed.min_v, 2.0);
  EXPECT_DOUBLE_EQ(mixed.max_v, 6.0);
  EXPECT_DOUBLE_EQ(mixed.sum_v, 8.0);
  EXPECT_TRUE(std::isnan(mixed.first_v)) << "first/last keep raw values";
  EXPECT_TRUE(std::isnan(mixed.last_v));
  // All-NaN chunk: the documented +inf/-inf/0 sentinels, still usable.
  const ChunkLocator& allnan = reader.Locators().at("allnan");
  EXPECT_TRUE(allnan.stats_usable());
  EXPECT_TRUE(std::isinf(allnan.min_v) && allnan.min_v > 0);
  EXPECT_TRUE(std::isinf(allnan.max_v) && allnan.max_v < 0);
  EXPECT_DOUBLE_EQ(allnan.sum_v, 0.0);
  EXPECT_EQ(allnan.points, 2u);
}

// --- byte goldens for NaN and empty chunks -----------------------------------

/// The mixed chunk of the NaN/empty goldens: 2,500 points over three
/// 1,024-point pages, a NaN every 7th point and a whole page of NaN in the
/// middle, so page headers carry both ordinary and +inf/-inf stats.
void NaNGoldenMixed(std::vector<Timestamp>* ts, std::vector<double>* values) {
  for (int i = 0; i < 2'500; ++i) {
    ts->push_back(i * 3);
    const bool nan = i % 7 == 0 || (i >= 1'024 && i < 2'048);
    values->push_back(nan ? std::nan("") : std::sin(i * 0.01) * 100);
  }
}

/// Writes the golden file — chunk "a.mixed", chunk "b.allnan" (100 NaN
/// points) and chunk "c.empty" (0 points) — through the whole-chunk
/// writer, or page by page through a ChunkBuilder when `streaming`, and
/// returns the file's FNV-1a digest.
uint64_t WriteNaNGoldenFile(const std::string& path, bool footer_stats,
                            bool streaming) {
  std::vector<Timestamp> mixed_ts;
  std::vector<double> mixed_vs;
  NaNGoldenMixed(&mixed_ts, &mixed_vs);
  std::vector<Timestamp> nan_ts;
  for (int i = 0; i < 100; ++i) nan_ts.push_back(1'000 + i);
  const std::vector<double> nan_vs(nan_ts.size(), std::nan(""));
  constexpr size_t kPage = 1'024;

  TsFileWriter writer(path);
  writer.set_footer_stats(footer_stats);
  auto write = [&](const char* sensor, const std::vector<Timestamp>& ts,
                   const std::vector<double>& vs) {
    if (!streaming) {
      return writer.WriteChunkF64(sensor, ts, vs, Encoding::kTs2Diff,
                                  Encoding::kGorilla, kPage);
    }
    ChunkBuilder chunk(sensor);
    for (size_t lo = 0; lo < ts.size(); lo += kPage) {
      const size_t hi = std::min(ts.size(), lo + kPage);
      RETURN_NOT_OK(chunk.AppendPageF64({ts.begin() + lo, ts.begin() + hi},
                                        {vs.begin() + lo, vs.begin() + hi}));
    }
    return writer.AppendChunk(chunk);
  };
  if (!write("a.mixed", mixed_ts, mixed_vs).ok() ||
      !write("b.allnan", nan_ts, nan_vs).ok() ||
      !write("c.empty", {}, {}).ok() || !writer.Finish().ok()) {
    return 0;
  }
  return bench::FnvFile(path);
}

// Pins the file bytes of chunks the engine-level sealed goldens never
// produce: NaN page and footer stats, an all-NaN chunk and an empty chunk
// (whose footer stats are the all-NaN sentinels min = +inf, max = -inf),
// in both footer formats and through both chunk writers.
TEST_F(TsFileTest, NaNAndEmptyChunkBytesMatchGolden) {
  constexpr uint64_t kGoldenBstf2 = 0x239e169da17ba474ull;
  constexpr uint64_t kGoldenBstf1 = 0xea559bdc378bc5d9ull;
  for (const bool streaming : {false, true}) {
    const uint64_t v2 = WriteNaNGoldenFile(Path("v2.bstf"), true, streaming);
    EXPECT_EQ(v2, kGoldenBstf2)
        << "streaming=" << streaming << " actual 0x" << std::hex << v2;
    const uint64_t v1 = WriteNaNGoldenFile(Path("v1.bstf"), false, streaming);
    EXPECT_EQ(v1, kGoldenBstf1)
        << "streaming=" << streaming << " actual 0x" << std::hex << v1;
  }
  // The writer's own locators are what a footer read parses back.
  ASSERT_NE(WriteNaNGoldenFile(Path("v2.bstf"), true, false), 0u);
  FooterMap footer;
  ASSERT_TRUE(ReadTsFileFooter(Path("v2.bstf"), &footer).ok());
  const ChunkLocator& empty = footer.at("c.empty");
  EXPECT_EQ(empty.points, 0u);
  EXPECT_TRUE(std::isinf(empty.min_v) && empty.min_v > 0);
  EXPECT_TRUE(std::isinf(empty.max_v) && empty.max_v < 0);
  EXPECT_EQ(empty.sum_v, 0.0);
}

// Page headers carry count/min/max/sum but no first/last values, so the
// interior pages a range aggregate folds from their headers must leave
// first/last to the decoded boundary pages — also when a boundary value
// is NaN.
TEST_F(TsFileTest, InteriorPageStatsLeaveFirstAndLastToBoundaryPages) {
  const std::string path = Path("interior.bstf");
  ASSERT_NE(WriteNaNGoldenFile(path, true, false), 0u);
  std::vector<Timestamp> ts;
  std::vector<double> vs;
  NaNGoldenMixed(&ts, &vs);
  // Points 0 and 2,499 (t = 0 and t = 7,497) are NaN; points 1 and 2,498
  // are not. Both ranges fold the all-NaN middle page from its header.
  for (const size_t lo : {size_t{0}, size_t{1}}) {
    const size_t hi = vs.size() - 1 - lo;
    TsFileReader::RangeStats stats;
    size_t skipped = 0;
    FoldPages(path, "a.mixed", ts[lo], ts[hi], &stats, &skipped);
    EXPECT_EQ(skipped, 1u);
    EXPECT_EQ(stats.count, hi - lo + 1);
    EXPECT_EQ(stats.first_time, ts[lo]);
    // Bit-equal, so NaN equals NaN.
    EXPECT_EQ(std::memcmp(&stats.first, &vs[lo], sizeof(double)), 0);
    EXPECT_EQ(stats.last_time, ts[hi]);
    EXPECT_EQ(std::memcmp(&stats.last, &vs[hi], sizeof(double)), 0);
  }
}

// Page statistics the writer never emits — a NaN min, max or sum, as a
// hand-crafted file could carry — are not trusted: the stats sink decodes
// that page and folds its points instead.
TEST_F(TsFileTest, NaNPageStatsForceADecode) {
  const std::string path = Path("nanstats.bstf");
  std::vector<Timestamp> ts;
  std::vector<double> values;
  for (int i = 0; i < 10'000; ++i) {
    ts.push_back(i);
    values.push_back(i % 13);
  }
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer
                    .WriteChunkF64("s", ts, values, Encoding::kTs2Diff,
                                   Encoding::kGorilla, /*points_per_page=*/1000)
                    .ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  const ChunkLocator& loc = reader.Locators().at("s");
  std::vector<uint8_t> chunk(static_cast<size_t>(loc.length));
  {
    std::ifstream in(path, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(loc.offset));
    in.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(chunk.size()));
    ASSERT_TRUE(in.good());
  }
  TsFileReader::RangeStats want;
  ASSERT_TRUE(reader.AggregateRangeF64("s", 0, 9'999, &want).ok());
  for (const int poisoned : {-1, 0, 1, 2}) {
    auto directory = std::make_shared<PageDirectory>();
    ASSERT_TRUE(ParsePageDirectory(chunk.data(), chunk.size(), "s", loc,
                                   directory.get())
                    .ok());
    ASSERT_EQ(directory->pages.size(), 10u);
    PageEntry& page = directory->pages[4];
    if (poisoned == 0) page.min_v = std::nan("");
    if (poisoned == 1) page.max_v = std::nan("");
    if (poisoned == 2) page.sum_v = std::nan("");
    PageReader pages(chunk.data(), directory);
    std::vector<MergeCursor> cursors;
    cursors.emplace_back(&pages, 0, 9'999);
    TsFileReader::RangeStats got;
    FoldTally tally;
    ASSERT_TRUE(MergeStats(cursors, 0, 9'999, &got, &tally).ok());
    // Pages 1..8 fold from their headers, except a poisoned page 4.
    EXPECT_EQ(tally.pages_folded, poisoned < 0 ? 8u : 7u) << poisoned;
    EXPECT_EQ(pages.pages_decoded(), poisoned < 0 ? 2u : 3u) << poisoned;
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.min, want.min);
    EXPECT_EQ(got.max, want.max);
    EXPECT_EQ(got.sum, want.sum);  // integer values: every sum is exact
    EXPECT_EQ(got.first_time, want.first_time);
    EXPECT_EQ(got.last_time, want.last_time);
    EXPECT_EQ(got.last, want.last);
  }
}

// --- failure injection --------------------------------------------------------

TEST_F(TsFileTest, CorruptMagicDetected) {
  const std::string path = Path("i.bstf");
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer.WriteChunkF64("s", {1, 2}, {1.0, 2.0}).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("XXXXX", 5);
  }
  TsFileReader reader(path);
  EXPECT_TRUE(reader.Open().IsCorruption());
  // The tail-only footer read (recovery, footer re-reads after a cache
  // eviction) checks the head magic against the tail magic too.
  FooterMap footer;
  EXPECT_TRUE(ReadTsFileFooter(path, &footer).IsCorruption());
}

TEST_F(TsFileTest, TruncatedFileDetected) {
  const std::string path = Path("j.bstf");
  {
    TsFileWriter writer(path);
    std::vector<Timestamp> ts;
    std::vector<double> values;
    for (int i = 0; i < 1000; ++i) {
      ts.push_back(i);
      values.push_back(i);
    }
    ASSERT_TRUE(writer.WriteChunkF64("s", ts, values).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  TsFileReader reader(path);
  EXPECT_FALSE(reader.Open().ok());
}

TEST_F(TsFileTest, GarbageIndexOffsetDetected) {
  const std::string path = Path("k.bstf");
  {
    TsFileWriter writer(path);
    ASSERT_TRUE(writer.WriteChunkF64("s", {1}, {1.0}).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  const auto size = std::filesystem::file_size(path);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(size) - 13);  // fixed64 before magic
    const uint64_t bogus = ~0ULL;
    f.write(reinterpret_cast<const char*>(&bogus), 8);
  }
  TsFileReader reader(path);
  EXPECT_TRUE(reader.Open().IsCorruption());
}

TEST_F(TsFileTest, MissingFileIsIOError) {
  TsFileReader reader(Path("does_not_exist.bstf"));
  EXPECT_TRUE(reader.Open().IsIOError());
}

}  // namespace
}  // namespace backsort
