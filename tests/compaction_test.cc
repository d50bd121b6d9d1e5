// Tests for the tiered compaction subsystem (engine/compaction.{h,cc})
// and its tsfile substrate: the PageReader page walk, the page-at-a-time
// ChunkBuilder (byte-identical to the monolithic path),
// the loser-tree k-way merge, the size-tier planner, the CompactionJob
// (LWW dedup, bounded streaming memory, clean failure on corrupt input —
// including a seeded mutation oracle — atomic .tmp + rename output), and
// the StorageEngine integration (query/aggregate results identical
// before/after, orphan .tmp sweep on open, CompactStep tier triggering,
// background scheduler convergence).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/compaction.h"
#include "engine/storage_engine.h"
#include "encoding/bytes.h"
#include "tsfile/tsfile.h"

namespace backsort {

/// Pins a job's worker count: a one-worker run is the serial reference the
/// parallel merge must reproduce.
struct CompactionJobTestPeer {
  static void SetWorkers(CompactionJob* job, size_t workers) {
    job->workers_ = workers;
  }
};

namespace {

/// At least four sensors per hardware thread, so every worker of a job
/// claims several.
size_t ManySensors() {
  const size_t threads = std::max(1u, std::thread::hardware_concurrency());
  return std::max<size_t>(16, 4 * threads);
}

/// One sensor's chunk in a generated input file.
struct InputChunk {
  std::string sensor;
  std::vector<Timestamp> ts;
  std::vector<double> vals;
  size_t page = 64;  // points per input page
  Encoding time_enc = Encoding::kTs2Diff;
  Encoding value_enc = Encoding::kGorilla;
};

/// One generated input file; chunks are written in vector order.
struct InputFile {
  std::vector<InputChunk> chunks;
  bool footer_stats = true;  // false writes a BSTF1 file
};

/// Input shapes of the differential oracle.
enum class Shape {
  kDisjoint,       // each input after the previous one, with a gap
  kTouching,       // each input starts at the previous one's last timestamp
  kTailOverlap,    // a big file plus one unsequence file over its tail
  kScatteredLate,  // a dense file plus clusters of late points over all of it
  kInterleaved,    // every input over the same range, ties included
  kDuplicates,     // disjoint, with repeated timestamps inside pages
  kSpecialValues,  // touching, a third of the values NaN, ±0.0 or ±inf
  kPlainInput,     // disjoint, one input PLAIN-encoded
  kBstf1Input,     // disjoint, one input with the stat-less BSTF1 footer
};

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

class CompactionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("compaction_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  EngineOptions Options() {
    EngineOptions opt;
    opt.data_dir = dir_.string();
    opt.shard_count = 1;
    opt.flush_workers = 1;
    // Files are sealed only by explicit FlushAll, so each test controls
    // its file layout exactly.
    opt.memtable_flush_threshold = 1'000'000;
    return opt;
  }

  /// Writes one sealed TsFile holding `sensor` with the given columns and
  /// returns a registry-style meta over it (not registered anywhere; the
  /// meta is never marked obsolete, so destruction leaves the file).
  SealedFileRef WriteFile(const std::string& name, const std::string& sensor,
                          const std::vector<Timestamp>& ts,
                          const std::vector<double>& vals) {
    const std::string path = (dir_ / name).string();
    TsFileWriter writer(path);
    EXPECT_TRUE(writer.WriteChunkF64(sensor, ts, vals).ok());
    EXPECT_TRUE(writer.Finish().ok());
    return std::make_shared<SealedFileMeta>(
        path, std::make_shared<const FooterIndex>(writer.Locators()), nullptr);
  }

  static std::vector<uint64_t> SizesOf(const std::vector<SealedFileRef>& fs) {
    std::vector<uint64_t> sizes;
    for (const SealedFileRef& f : fs) {
      sizes.push_back(std::filesystem::file_size(f->path()));
    }
    return sizes;
  }

  /// Fake meta for planner-only tests: the path never exists and the meta
  /// is never marked obsolete, so nothing touches the filesystem.
  SealedFileRef FakeMeta(const std::string& name) {
    return std::make_shared<SealedFileMeta>(
        (dir_ / name).string(), std::make_shared<const FooterIndex>(), nullptr);
  }

  /// `sensor`'s locator in `file`'s footer.
  static ChunkLocator Locator(const SealedFileRef& file,
                              const std::string& sensor) {
    std::shared_ptr<const FooterIndex> footer;
    EXPECT_TRUE(file->Footer(&footer).ok());
    const ChunkLocator* locator = footer->Find(sensor);
    EXPECT_NE(locator, nullptr);
    return locator == nullptr ? ChunkLocator{} : *locator;
  }

  /// Rewrites page `page`'s header max_t in `sensor`'s chunk of the file
  /// at `path` from `old_max` to `new_max`. Both zigzag varints must have
  /// the same length, so no other byte of the file moves.
  static void RewritePageMaxTime(const std::string& path,
                                 const std::string& sensor, size_t page,
                                 Timestamp old_max, Timestamp new_max) {
    FooterMap footer;
    ASSERT_TRUE(ReadTsFileFooter(path, &footer).ok());
    const ChunkLocator& locator = footer.at(sensor);
    std::vector<uint8_t> bytes = Slurp(path);
    uint8_t* chunk = bytes.data() + locator.offset;
    PageDirectory directory;
    ASSERT_TRUE(
        ParsePageDirectory(chunk, locator.length, sensor, locator, &directory)
            .ok());
    ASSERT_LT(page, directory.pages.size());
    const PageEntry& e = directory.pages[page];
    ASSERT_EQ(e.max_t, old_max);
    // Page header: point count, min_t, max_t (see tsfile.h).
    ByteReader r(chunk + e.offset, e.length);
    uint64_t count = 0;
    int64_t min_t = 0, max_t = 0;
    ASSERT_TRUE(r.GetVarint64(&count).ok());
    ASSERT_TRUE(r.GetVarintSigned64(&min_t).ok());
    const size_t max_at = r.position();
    ASSERT_TRUE(r.GetVarintSigned64(&max_t).ok());
    ByteBuffer patch;
    patch.PutVarintSigned64(new_max);
    ASSERT_EQ(patch.size(), r.position() - max_at) << "varint length moved";
    std::memcpy(chunk + e.offset + max_at, patch.data().data(), patch.size());
    Spit(path, bytes);
  }

  static std::vector<uint8_t> Slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
  }

  /// Replaces the file at `path` with `bytes`. A fresh file rather than a
  /// truncating rewrite, which some filesystems turn into a blocking flush.
  static void Spit(const std::string& path, const std::vector<uint8_t>& bytes) {
    std::filesystem::remove(path);
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }

  size_t TmpFileCount() const {
    size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir_)) {
      if (e.path().string().size() >= 4 &&
          e.path().string().compare(e.path().string().size() - 4, 4, ".tmp") ==
              0) {
        ++n;
      }
    }
    return n;
  }

  void ClearDir() const {
    for (const auto& e : std::filesystem::directory_iterator(dir_)) {
      std::filesystem::remove(e.path());
    }
  }

  /// Writes `files` as a window plan, oldest first: "seq-00000000.bstf",
  /// then "unseq-0000000<i>.bstf".
  CompactionPlan WritePlan(const std::vector<InputFile>& files) {
    CompactionPlan plan;
    for (size_t i = 0; i < files.size(); ++i) {
      const std::string path =
          (dir_ / ((i == 0 ? "seq-0000000" : "unseq-0000000") +
                   std::to_string(i) + ".bstf"))
              .string();
      TsFileWriter writer(path);
      writer.set_footer_stats(files[i].footer_stats);
      for (const InputChunk& c : files[i].chunks) {
        EXPECT_TRUE(writer
                        .WriteChunkF64(c.sensor, c.ts, c.vals, c.time_enc,
                                       c.value_enc, c.page)
                        .ok());
      }
      EXPECT_TRUE(writer.Finish().ok());
      plan.inputs.push_back(std::make_shared<SealedFileMeta>(
          path, std::make_shared<const FooterIndex>(writer.Locators()),
          nullptr));
    }
    plan.input_bytes = SizesOf(plan.inputs);
    plan.sequence_output = true;
    return plan;
  }

  /// Output page size of the differential oracle's jobs.
  static constexpr size_t kOutputPage = 64;

  /// Late points over the whole of `dense`: 6-10 clusters at evenly
  /// spread anchors, each rewriting the anchor's timestamp, filling the
  /// first gap at or after it, and adding 0-4 more rewrites or fills
  /// nearby. Strictly increasing.
  static std::vector<Timestamp> ScatteredLate(
      const std::vector<Timestamp>& dense, Rng& rng) {
    std::set<Timestamp> late;
    const size_t clusters = 6 + rng.NextBelow(5);
    const size_t span = dense.size() - 16;
    for (size_t c = 0; c < clusters; ++c) {
      const size_t a = c * span / (clusters - 1);
      late.insert(dense[a]);
      size_t g = a;
      while (g + 1 < dense.size() && dense[g + 1] - dense[g] < 2) ++g;
      if (g + 1 < dense.size()) late.insert(dense[g] + 1);
      const size_t extra = rng.NextBelow(5);
      for (size_t x = 0; x < extra; ++x) {
        late.insert(dense[a + 1 + rng.NextBelow(12)] +
                    static_cast<Timestamp>(rng.NextBelow(2)));
      }
    }
    return {late.begin(), late.end()};
  }

  /// Seeded inputs of one shape over two sensors: 2-4 files (the tail
  /// overlap and the scattered late points: exactly two). Input pages
  /// hold at most kOutputPage points, except in the interleaved shape.
  static std::vector<InputFile> MakeShape(Shape shape, uint64_t seed) {
    Rng rng(seed * 1000 + static_cast<uint64_t>(shape));
    const bool special = shape == Shape::kSpecialValues;
    auto value = [&rng, special]() {
      static const double kSpecial[] = {
          std::numeric_limits<double>::quiet_NaN(), 0.0, -0.0,
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()};
      if (special && rng.NextBelow(3) == 0) {
        return kSpecial[rng.NextBelow(std::size(kSpecial))];
      }
      // Not dyadic, so a sum's bits depend on the order it adds in.
      return rng.NextDouble() * 1000.0 - 500.0;
    };
    const size_t pages[] = {kOutputPage, 40, 17};
    const std::vector<std::string> sensors = {"a", "b"};
    const size_t n =
        shape == Shape::kTailOverlap || shape == Shape::kScatteredLate
            ? 2
            : 2 + rng.NextBelow(3);
    std::vector<InputFile> files(n);
    for (const std::string& sensor : sensors) {
      Timestamp next = static_cast<Timestamp>(rng.NextBelow(100));
      for (size_t i = 0; i < n; ++i) {
        InputChunk chunk{sensor, {}, {}, pages[rng.NextBelow(3)]};
        size_t points = 50 + rng.NextBelow(250);
        Timestamp t = next;
        if (shape == Shape::kScatteredLate && i == 1) {
          chunk.ts = ScatteredLate(files[0].chunks.back().ts, rng);
          for (size_t j = 0; j < chunk.ts.size(); ++j) {
            chunk.vals.push_back(value());
          }
          files[i].chunks.push_back(std::move(chunk));
          continue;
        }
        switch (shape) {
          case Shape::kTailOverlap:
          case Shape::kScatteredLate:
            if (i == 0) {
              points = 2000;
              chunk.page = kOutputPage;
            } else {
              // Starts among the big file's last 300 points.
              t = files[0].chunks.back().ts[1700 + rng.NextBelow(100)];
              points = 100;
            }
            break;
          case Shape::kInterleaved:
            t = 0;
            chunk.page = 100;
            break;
          default:
            break;
        }
        for (size_t j = 0; j < points; ++j) {
          if (shape == Shape::kInterleaved) {
            // Strictly increasing per input; equal across inputs at random.
            t = static_cast<Timestamp>(j * n + rng.NextBelow(n));
          }
          chunk.ts.push_back(t);
          chunk.vals.push_back(value());
          const bool repeat =
              shape == Shape::kDuplicates && rng.NextBelow(20) == 0;
          if (!repeat) t += 1 + static_cast<Timestamp>(rng.NextBelow(3));
        }
        const Timestamp last = chunk.ts.back();
        next = shape == Shape::kTouching || shape == Shape::kSpecialValues
                   ? last
                   : last + 1 + static_cast<Timestamp>(rng.NextBelow(5));
        if (i == 1 && shape == Shape::kPlainInput) {
          chunk.time_enc = Encoding::kPlain;
          chunk.value_enc = Encoding::kPlain;
        }
        files[i].chunks.push_back(std::move(chunk));
      }
    }
    if (shape == Shape::kBstf1Input) files[1].footer_stats = false;
    return files;
  }

  /// The job's output as the two-pass re-encoding merge wrote it: every
  /// input chunk decoded whole by TsFileReader (its own chunk walk, not
  /// the job's), resolved last-write-wins — a later window position wins
  /// a tie, and within one input the later point does — and re-encoded
  /// with the default encodings, `config.points_per_page` points to a
  /// page. Writes the file at `path` and returns its footer.
  static FooterEntries ReferenceMerge(const CompactionPlan& plan,
                                      const CompactionConfig& config,
                                      const std::string& path) {
    std::map<std::string, std::vector<TvPairDouble>> merged;
    for (const SealedFileRef& in : plan.inputs) {
      TsFileReader reader(in->path());
      EXPECT_TRUE(reader.Open().ok());
      for (const std::string& sensor : reader.Sensors()) {
        std::vector<Timestamp> ts;
        std::vector<double> vals;
        EXPECT_TRUE(reader.ReadChunkF64(sensor, &ts, &vals).ok());
        std::vector<TvPairDouble>& pts = merged[sensor];
        for (size_t j = 0; j < ts.size(); ++j) pts.push_back({ts[j], vals[j]});
      }
    }
    TsFileWriter writer(path);
    writer.set_footer_stats(config.footer_stats);
    for (auto& [sensor, pts] : merged) {
      std::stable_sort(pts.begin(), pts.end(),
                       [](const TvPairDouble& a, const TvPairDouble& b) {
                         return a.t < b.t;
                       });
      std::vector<Timestamp> ts;
      std::vector<double> vals;
      for (const TvPairDouble& p : pts) {
        if (!ts.empty() && ts.back() == p.t) {
          vals.back() = p.v;
        } else {
          ts.push_back(p.t);
          vals.push_back(p.v);
        }
      }
      if (ts.empty()) continue;
      EXPECT_TRUE(writer
                      .WriteChunkF64(sensor, ts, vals, Encoding::kTs2Diff,
                                     Encoding::kGorilla,
                                     config.points_per_page)
                      .ok());
    }
    EXPECT_TRUE(writer.Finish().ok());
    return writer.Locators();
  }

  /// Every page header of every chunk in the file at `path` against the
  /// fold of the points its page decodes to.
  static void ExpectPageHeadersFoldTheirPoints(const std::string& path,
                                               const std::string& label) {
    FooterMap footer;
    ASSERT_TRUE(ReadTsFileFooter(path, &footer).ok()) << label;
    for (const auto& [sensor, locator] : footer) {
      std::optional<PageReader> pages;
      ASSERT_TRUE(OpenPageReader(path, sensor, locator, nullptr, &pages).ok())
          << label;
      for (size_t p = 0; p < pages->page_count(); ++p) {
        ASSERT_TRUE(pages->DecodePage(p).ok()) << label;
        RangeStats fold;
        for (size_t i = 0; i < pages->page_times().size(); ++i) {
          fold.Fold(pages->page_times()[i], pages->page_values()[i]);
        }
        const PageEntry& e = pages->directory()->pages[p];
        const std::string where =
            label + " " + sensor + " page " + std::to_string(p);
        EXPECT_EQ(e.points, fold.count) << where;
        EXPECT_EQ(e.min_t, fold.first_time) << where;
        EXPECT_EQ(e.max_t, fold.last_time) << where;
        EXPECT_EQ(Bits(e.min_v), Bits(fold.min)) << where;
        EXPECT_EQ(Bits(e.max_v), Bits(fold.max)) << where;
        EXPECT_EQ(Bits(e.sum_v), Bits(fold.sum)) << where;
      }
    }
  }

  /// Every chunk's page directory in `file`, by sensor.
  static std::map<std::string, std::vector<PageEntry>> PagesOf(
      const SealedFileRef& file) {
    std::map<std::string, std::vector<PageEntry>> out;
    FooterMap footer;
    EXPECT_TRUE(ReadTsFileFooter(file->path(), &footer).ok());
    for (const auto& [sensor, locator] : footer) {
      std::optional<PageReader> pages;
      EXPECT_TRUE(
          OpenPageReader(file->path(), sensor, locator, nullptr, &pages).ok());
      if (pages.has_value()) out[sensor] = pages->directory()->pages;
    }
    return out;
  }

  /// Input pages of `plan` that the job must merge rather than copy,
  /// computed from decoded points: a page is copied only when its chunk
  /// has the output's encodings, it fits a `points_per_page` output page,
  /// its times strictly increase, and no point of any other page of its
  /// sensor (in any input) lies inside its [first, last] time.
  static size_t PointRuleMergedPages(const CompactionPlan& plan,
                                     size_t points_per_page) {
    struct Page {
      std::vector<Timestamp> ts;
      bool copyable;
    };
    std::map<std::string, std::vector<Page>> by_sensor;
    for (const SealedFileRef& in : plan.inputs) {
      FooterMap footer;
      EXPECT_TRUE(ReadTsFileFooter(in->path(), &footer).ok());
      for (const auto& [sensor, locator] : footer) {
        std::optional<PageReader> pages;
        EXPECT_TRUE(
            OpenPageReader(in->path(), sensor, locator, nullptr, &pages).ok());
        if (!pages.has_value()) continue;
        const PageDirectory& dir = *pages->directory();
        const bool encodings =
            dir.time_encoding == static_cast<uint8_t>(Encoding::kTs2Diff) &&
            dir.value_encoding == static_cast<uint8_t>(Encoding::kGorilla);
        for (size_t p = 0; p < pages->page_count(); ++p) {
          EXPECT_TRUE(pages->DecodePage(p).ok());
          const std::vector<Timestamp>& ts = pages->page_times();
          const bool increasing =
              std::adjacent_find(ts.begin(), ts.end(),
                                 std::greater_equal<Timestamp>()) == ts.end();
          by_sensor[sensor].push_back(
              {ts, encodings && ts.size() <= points_per_page && increasing});
        }
      }
    }
    size_t merged = 0;
    for (const auto& [sensor, pages] : by_sensor) {
      for (size_t a = 0; a < pages.size(); ++a) {
        const Timestamp lo = pages[a].ts.front(), hi = pages[a].ts.back();
        bool clean = pages[a].copyable;
        for (size_t b = 0; clean && b < pages.size(); ++b) {
          if (b == a) continue;
          const auto it = std::lower_bound(pages[b].ts.begin(),
                                           pages[b].ts.end(), lo);
          clean = it == pages[b].ts.end() || *it > hi;
        }
        merged += clean ? 0 : 1;
      }
    }
    return merged;
  }

  /// `got` and `want` describe the same points with the same statistics,
  /// bit for bit (offsets and lengths may differ).
  static void ExpectSameChunkStats(const ChunkLocator& got,
                                   const ChunkLocator& want,
                                   const std::string& where) {
    EXPECT_EQ(got.points, want.points) << where;
    EXPECT_EQ(got.min_t, want.min_t) << where;
    EXPECT_EQ(got.max_t, want.max_t) << where;
    EXPECT_EQ(got.raw_type, want.raw_type) << where;
    EXPECT_EQ(got.has_stats, want.has_stats) << where;
    EXPECT_EQ(Bits(got.min_v), Bits(want.min_v)) << where;
    EXPECT_EQ(Bits(got.max_v), Bits(want.max_v)) << where;
    EXPECT_EQ(Bits(got.sum_v), Bits(want.sum_v)) << where;
    EXPECT_EQ(Bits(got.first_v), Bits(want.first_v)) << where;
    EXPECT_EQ(Bits(got.last_v), Bits(want.last_v)) << where;
  }

  /// The job output `out` holds the reference's points and footer
  /// statistics, bit for bit, and its page headers fold their points.
  static void ExpectMatchesReference(const SealedFileRef& out,
                                     const std::string& ref_path,
                                     const FooterEntries& ref_footer,
                                     const std::string& label) {
    TsFileReader got(out->path());
    TsFileReader want(ref_path);
    ASSERT_TRUE(got.Open().ok()) << label;
    ASSERT_TRUE(want.Open().ok()) << label;
    ASSERT_EQ(got.Sensors(), want.Sensors()) << label;
    std::shared_ptr<const FooterIndex> footer;
    ASSERT_TRUE(out->Footer(&footer).ok()) << label;
    ASSERT_EQ(footer->size(), ref_footer.size()) << label;
    for (size_t k = 0; k < ref_footer.size(); ++k) {
      const std::string& sensor = ref_footer[k].first;
      const std::string where = label + " " + sensor;
      ASSERT_EQ(footer->NameAt(k), sensor) << where;
      ExpectSameChunkStats(footer->LocatorAt(k), ref_footer[k].second, where);
      std::vector<Timestamp> got_ts, want_ts;
      std::vector<double> got_vals, want_vals;
      ASSERT_TRUE(got.ReadChunkF64(sensor, &got_ts, &got_vals).ok()) << where;
      ASSERT_TRUE(want.ReadChunkF64(sensor, &want_ts, &want_vals).ok())
          << where;
      ASSERT_EQ(got_ts, want_ts) << where;
      ASSERT_EQ(got_vals.size(), want_vals.size()) << where;
      for (size_t j = 0; j < want_vals.size(); ++j) {
        ASSERT_EQ(Bits(got_vals[j]), Bits(want_vals[j]))
            << where << " t=" << want_ts[j];
      }
    }
    ExpectPageHeadersFoldTheirPoints(out->path(), label);
  }

  struct MutationTally {
    size_t failed = 0;
    size_t merged = 0;
    /// Merged rounds whose every flip hit page-header value statistics.
    size_t stats_only_merged = 0;
  };

  /// Where RunMutationRounds aims the flips it does not spread at random.
  enum class Aim {
    kHeaders,      // half within 48 bytes of a page header's start
    kValueStats,   // a third there, a third in a header's value statistics
    kInput0Times,  // a third there, a third in input 0's header count/times
  };

  /// `rounds` seeded mutation rounds over `plan`'s inputs. Each round
  /// restores the pristine inputs and damages one: every tenth round a
  /// truncation, else 1-4 flipped bytes, aimed as `aim` says: near a page
  /// header's start, in a header's 24 value-statistic bytes, or in the
  /// point count, min_t and max_t of one of input 0's page headers (which
  /// then damages input 0 as well). The job then either
  /// fails cleanly (Corruption or IOError, no temporary left, inputs still
  /// on disk) or every input still answers a full-range query and the
  /// output holds exactly the last-write-wins merge of those answers, with
  /// page headers and footer statistics recomputed from its points.
  MutationTally RunMutationRounds(const CompactionPlan& plan,
                                  const CompactionConfig& config, int rounds,
                                  uint64_t seed, Aim aim) {
    const size_t inputs = plan.inputs.size();
    std::vector<std::vector<uint8_t>> pristine(inputs);
    std::vector<std::vector<uint64_t>> headers(inputs);  // file offsets
    std::vector<std::vector<uint64_t>> stats_at(inputs);
    for (size_t i = 0; i < inputs; ++i) {
      pristine[i] = Slurp(plan.inputs[i]->path());
      FooterMap footer;
      EXPECT_TRUE(ReadTsFileFooter(plan.inputs[i]->path(), &footer).ok());
      for (const auto& [sensor, locator] : footer) {
        const uint8_t* chunk = pristine[i].data() + locator.offset;
        PageDirectory directory;
        EXPECT_TRUE(ParsePageDirectory(chunk, locator.length, sensor, locator,
                                       &directory)
                        .ok());
        for (const PageEntry& e : directory.pages) {
          headers[i].push_back(locator.offset + e.offset);
          // Page header: point count, min_t, max_t, then min/max/sum.
          ByteReader r(chunk + e.offset, e.length);
          uint64_t count = 0;
          int64_t t = 0;
          EXPECT_TRUE(r.GetVarint64(&count).ok());
          EXPECT_TRUE(r.GetVarintSigned64(&t).ok());
          EXPECT_TRUE(r.GetVarintSigned64(&t).ok());
          stats_at[i].push_back(locator.offset + e.offset + r.position());
        }
      }
    }

    using Answers = std::map<std::string, std::vector<TvPairDouble>>;
    // Every chunk of `file`, full range, through the query path's reader.
    auto query_all = [](const SealedFileRef& file, Answers* out) -> Status {
      std::shared_ptr<const FooterIndex> footer;
      RETURN_NOT_OK(file->Footer(&footer));
      for (size_t k = 0; k < footer->size(); ++k) {
        const std::string sensor(footer->NameAt(k));
        std::optional<PageReader> pages;
        RETURN_NOT_OK(file->OpenChunk(sensor, footer->LocatorAt(k), &pages));
        RETURN_NOT_OK(pages->Query(std::numeric_limits<Timestamp>::min(),
                                   std::numeric_limits<Timestamp>::max(),
                                   &(*out)[sensor]));
      }
      return Status::OK();
    };

    Rng rng(seed);
    MutationTally tally;
    for (int round = 0; round < rounds; ++round) {
      for (size_t i = 0; i < inputs; ++i) {
        Spit(plan.inputs[i]->path(), pristine[i]);
      }

      const size_t victim = rng.NextBelow(inputs);
      std::vector<uint8_t> bad = pristine[victim];
      std::vector<uint8_t> input0 = pristine[0];
      std::vector<uint8_t>& bad0 = victim == 0 ? bad : input0;
      bool stats_only = round % 10 != 9;
      if (round % 10 == 9) {
        bad.resize(rng.NextBelow(bad.size()));
      } else {
        const int flips = 1 + static_cast<int>(rng.NextBelow(4));
        for (int f = 0; f < flips; ++f) {
          const std::vector<uint64_t>& heads = headers[victim];
          const std::vector<uint64_t>& stats = stats_at[victim];
          const uint64_t target = rng.NextBelow(aim == Aim::kHeaders ? 2 : 3);
          size_t pos = 0;
          if (target == 0) {
            pos = static_cast<size_t>(heads[rng.NextBelow(heads.size())]) +
                  rng.NextBelow(48);
          } else if (aim == Aim::kValueStats && target == 1) {
            pos = static_cast<size_t>(stats[rng.NextBelow(stats.size())]) +
                  rng.NextBelow(24);
          } else if (aim == Aim::kInput0Times && target == 1) {
            const size_t h = rng.NextBelow(headers[0].size());
            const size_t at = static_cast<size_t>(
                headers[0][h] + rng.NextBelow(stats_at[0][h] - headers[0][h]));
            bad0[at] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
            stats_only = false;
            continue;
          } else {
            pos = rng.NextBelow(bad.size());
          }
          stats_only = stats_only && aim == Aim::kValueStats && target == 1;
          bad[std::min(pos, bad.size() - 1)] ^=
              static_cast<uint8_t>(1 + rng.NextBelow(255));
        }
      }
      Spit(plan.inputs[victim]->path(), bad);
      if (victim != 0 && input0 != pristine[0]) {
        Spit(plan.inputs[0]->path(), input0);
      }

      CompactionJob job(config, nullptr);
      SealedFileRef out;
      CompactionStats stats;
      const Status st = job.Run(plan, &out, &stats);
      EXPECT_EQ(TmpFileCount(), 0u) << "round " << round;
      for (const SealedFileRef& in : plan.inputs) {
        EXPECT_TRUE(std::filesystem::exists(in->path())) << "round " << round;
      }
      if (!st.ok()) {
        ++tally.failed;
        EXPECT_TRUE(st.IsCorruption() || st.IsIOError())
            << "round " << round << ": " << st.ToString();
        EXPECT_FALSE(stats_only)
            << "round " << round << ": a value-stat flip failed the job";
        EXPECT_EQ(out, nullptr);
        continue;
      }
      ++tally.merged;
      if (stats_only) ++tally.stats_only_merged;
      EXPECT_NE(out, nullptr);
      if (out == nullptr) continue;
      // The reference: the inputs' own answers, newest input last,
      // resolved last-write-wins per timestamp.
      Answers want;
      for (const SealedFileRef& in : plan.inputs) {
        Answers answers;
        const Status qs = query_all(in, &answers);
        EXPECT_TRUE(qs.ok()) << "round " << round
                             << ": compaction accepted an input a query "
                                "rejects: "
                             << qs.ToString();
        for (const auto& [sensor, pts] : answers) {
          want[sensor].insert(want[sensor].end(), pts.begin(), pts.end());
        }
      }
      for (auto& [sensor, pts] : want) {
        std::stable_sort(pts.begin(), pts.end(),
                         [](const TvPairDouble& a, const TvPairDouble& b) {
                           return a.t < b.t;
                         });
        std::vector<TvPairDouble> lww;
        for (const TvPairDouble& p : pts) {
          if (!lww.empty() && lww.back().t == p.t) {
            lww.back() = p;
          } else {
            lww.push_back(p);
          }
        }
        pts = std::move(lww);
      }
      Answers got;
      EXPECT_TRUE(query_all(out, &got).ok()) << "round " << round;
      EXPECT_EQ(got.size(), want.size()) << "round " << round;
      std::shared_ptr<const FooterIndex> footer;
      EXPECT_TRUE(out->Footer(&footer).ok()) << "round " << round;
      for (const auto& [sensor, pts] : want) {
        const std::string where = "round " + std::to_string(round) + " " +
                                  sensor;
        const std::vector<TvPairDouble>& g = got[sensor];
        EXPECT_EQ(g.size(), pts.size()) << where;
        RangeStats fold;
        for (size_t j = 0; j < std::min(g.size(), pts.size()); ++j) {
          EXPECT_EQ(g[j].t, pts[j].t) << where;
          EXPECT_EQ(Bits(g[j].v), Bits(pts[j].v)) << where << " t=" << pts[j].t;
          fold.Fold(g[j].t, g[j].v);
        }
        const ChunkLocator* locator = footer->Find(sensor);
        EXPECT_NE(locator, nullptr) << where;
        if (locator != nullptr && fold.count > 0) {
          EXPECT_EQ(Bits(locator->min_v), Bits(fold.min)) << where;
          EXPECT_EQ(Bits(locator->max_v), Bits(fold.max)) << where;
          EXPECT_EQ(Bits(locator->sum_v), Bits(fold.sum)) << where;
          EXPECT_EQ(Bits(locator->first_v), Bits(fold.first)) << where;
          EXPECT_EQ(Bits(locator->last_v), Bits(fold.last)) << where;
        }
      }
      ExpectPageHeadersFoldTheirPoints(out->path(),
                                       "round " + std::to_string(round));
      out->MarkObsolete();  // unlinked when the last ref drops
    }
    return tally;
  }

  std::filesystem::path dir_;
};

// --- PageReader page walk (the merge's input) -----------------------------

TEST_F(CompactionTest, PageWalkMatchesReadChunk) {
  std::vector<Timestamp> ts;
  std::vector<double> vals;
  for (Timestamp t = 0; t < 5000; ++t) {
    ts.push_back(t * 3);  // non-trivial deltas for the ts2diff decoder
    vals.push_back(static_cast<double>(t) * 0.5 - 7.0);
  }
  const std::string path = (dir_ / "seq-00000000.bstf").string();
  TsFileWriter writer(path);
  ASSERT_TRUE(writer.WriteChunkF64("s", ts, vals).ok());
  ASSERT_TRUE(writer.Finish().ok());

  // TsFileReader's whole-chunk decode is the independent reference.
  TsFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  std::vector<Timestamp> want_ts;
  std::vector<double> want_vals;
  ASSERT_TRUE(reader.ReadChunkF64("s", &want_ts, &want_vals).ok());
  ASSERT_EQ(want_ts, ts);
  ASSERT_EQ(want_vals, vals);

  std::optional<PageReader> pages;
  ASSERT_TRUE(
      OpenPageReader(path, "s", reader.Locators().at("s"), nullptr, &pages)
          .ok());
  const size_t expect_pages =
      (ts.size() + TsFileWriter::kDefaultPointsPerPage - 1) /
      TsFileWriter::kDefaultPointsPerPage;
  ASSERT_EQ(pages->page_count(), expect_pages);
  std::vector<Timestamp> got_ts;
  std::vector<double> got_vals;
  size_t max_page = 0;
  for (size_t p = 0; p < pages->page_count(); ++p) {
    ASSERT_TRUE(pages->DecodePage(p).ok());
    const std::vector<Timestamp>& page_ts = pages->page_times();
    const std::vector<double>& page_vals = pages->page_values();
    ASSERT_EQ(page_ts.size(), page_vals.size());
    got_ts.insert(got_ts.end(), page_ts.begin(), page_ts.end());
    got_vals.insert(got_vals.end(), page_vals.begin(), page_vals.end());
    max_page = std::max(max_page, page_ts.size());
  }
  EXPECT_EQ(got_ts, want_ts);
  EXPECT_EQ(got_vals, want_vals);
  // One decoded page at a time, never the whole 5000-point chunk.
  EXPECT_LE(max_page, TsFileWriter::kDefaultPointsPerPage);
  EXPECT_EQ(pages->pages_decoded(), expect_pages);
}

TEST_F(CompactionTest, PageWalkEmptyChunkHasNoPages) {
  // A 0-point chunk opens as a walk with nothing to decode.
  const std::string path = (dir_ / "seq-00000000.bstf").string();
  TsFileWriter writer(path);
  ASSERT_TRUE(writer.WriteChunkF64("e", {}, {}).ok());
  ASSERT_TRUE(writer.Finish().ok());
  const ChunkLocator locator = writer.Locators().front().second;
  ASSERT_EQ(locator.points, 0u);

  std::optional<PageReader> pages;
  ASSERT_TRUE(OpenPageReader(path, "e", locator, nullptr, &pages).ok());
  EXPECT_EQ(pages->page_count(), 0u);
  EXPECT_EQ(pages->pages_decoded(), 0u);
}

// --- ChunkBuilder ----------------------------------------------------------

TEST_F(CompactionTest, StreamingWriterByteIdenticalToMonolithic) {
  std::vector<Timestamp> ts;
  std::vector<double> vals;
  for (Timestamp t = 0; t < 350; ++t) {
    ts.push_back(t * 2);
    vals.push_back(std::sin(static_cast<double>(t)));
  }
  const size_t page = 100;
  // A second non-empty chunk and an empty one follow, so each header the
  // writer places at AppendChunk lands after spilled chunks.
  std::vector<Timestamp> ts2;
  std::vector<double> vals2;
  for (Timestamp t = 0; t < 150; ++t) {
    ts2.push_back(1'000 + t * 5);
    vals2.push_back(std::cos(static_cast<double>(t)));
  }
  struct Input {
    const char* sensor;
    const std::vector<Timestamp>& ts;
    const std::vector<double>& vals;
  };
  const std::vector<Timestamp> no_ts;
  const std::vector<double> no_vals;
  const Input inputs[] = {{"s", ts, vals}, {"t", ts2, vals2},
                          {"u", no_ts, no_vals}};

  const std::string mono_path = (dir_ / "mono.bstf").string();
  TsFileWriter mono(mono_path);
  for (const Input& in : inputs) {
    ASSERT_TRUE(mono.WriteChunkF64(in.sensor, in.ts, in.vals,
                                   Encoding::kTs2Diff, Encoding::kGorilla,
                                   page)
                    .ok());
  }
  ASSERT_TRUE(mono.Finish().ok());

  // Same points, page-at-a-time, with an aggressive spill threshold so the
  // build buffer hits disk repeatedly mid-file.
  const std::string stream_path = (dir_ / "stream.bstf").string();
  TsFileWriter stream(stream_path);
  stream.set_spill_threshold(64);
  for (const Input& in : inputs) {
    ChunkBuilder chunk(in.sensor);
    for (size_t begin = 0; begin < in.ts.size(); begin += page) {
      const size_t end = std::min(begin + page, in.ts.size());
      std::vector<Timestamp> pts(in.ts.begin() + begin, in.ts.begin() + end);
      std::vector<double> pvs(in.vals.begin() + begin,
                              in.vals.begin() + end);
      ASSERT_TRUE(chunk.AppendPageF64(pts, pvs).ok());
    }
    ASSERT_TRUE(stream.AppendChunk(chunk).ok());
  }
  ASSERT_TRUE(stream.Finish().ok());

  auto slurp = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string mono_bytes = slurp(mono_path);
  const std::string stream_bytes = slurp(stream_path);
  ASSERT_FALSE(mono_bytes.empty());
  EXPECT_EQ(mono_bytes, stream_bytes);

  // And the streamed file reads back through the normal reader.
  TsFileReader reader(stream_path);
  ASSERT_TRUE(reader.Open().ok());
  std::vector<Timestamp> got_ts;
  std::vector<double> got_vals;
  ASSERT_TRUE(reader.ReadChunkF64("s", &got_ts, &got_vals).ok());
  EXPECT_EQ(got_ts, ts);
  EXPECT_EQ(got_vals, vals);
}

// Appending a page's encoded buffers with the header rebuilt from its
// points writes the same bytes as encoding those points afresh.
TEST_F(CompactionTest, EncodedPageAppendByteIdenticalToAppendPage) {
  std::vector<Timestamp> ts;
  std::vector<double> vals;
  for (Timestamp t = 0; t < 350; ++t) {
    ts.push_back(t * 3);
    vals.push_back(t % 7 == 0 ? std::numeric_limits<double>::quiet_NaN()
                              : std::cos(static_cast<double>(t)));
  }
  const std::string mono_path = (dir_ / "mono.bstf").string();
  TsFileWriter mono(mono_path);
  ASSERT_TRUE(mono.WriteChunkF64("s", ts, vals, Encoding::kTs2Diff,
                                 Encoding::kGorilla, 100)
                  .ok());
  ASSERT_TRUE(mono.Finish().ok());

  std::optional<PageReader> pages;
  ASSERT_TRUE(OpenPageReader(mono_path, "s", mono.Locators().front().second,
                             nullptr, &pages)
                  .ok());
  const std::string copy_path = (dir_ / "copy.bstf").string();
  TsFileWriter copy(copy_path);
  ChunkBuilder chunk("s");
  for (size_t p = 0; p < pages->page_count(); ++p) {
    ASSERT_TRUE(pages->DecodePage(p).ok());
    ASSERT_TRUE(chunk.AppendEncodedPageF64(pages->page_times(),
                                           pages->page_values(),
                                           pages->page_time_bytes(),
                                           pages->page_value_bytes())
                    .ok());
  }
  ASSERT_TRUE(copy.AppendChunk(chunk).ok());
  ASSERT_TRUE(copy.Finish().ok());
  EXPECT_EQ(Slurp(copy_path), Slurp(mono_path));
}

TEST_F(CompactionTest, StreamingWriterValidatesPageOrderAndState) {
  TsFileWriter writer((dir_ / "bad.bstf").string());
  ChunkBuilder chunk("s");
  // A page needs points, one value per timestamp, in time order.
  EXPECT_FALSE(chunk.AppendPageF64({}, {}).ok());
  EXPECT_FALSE(chunk.AppendPageF64({1, 2}, {0.5}).ok());
  EXPECT_FALSE(chunk.AppendPageF64({2, 1}, {0.5, 0.5}).ok());
  ASSERT_TRUE(chunk.AppendPageF64({10, 11}, {1.0, 2.0}).ok());
  // Page starting before the previous page's last timestamp.
  EXPECT_FALSE(chunk.AppendPageF64({5, 6}, {3.0, 4.0}).ok());
  ASSERT_TRUE(chunk.AppendPageF64({12}, {5.0}).ok());
  EXPECT_TRUE(writer.AppendChunk(chunk).ok());
  EXPECT_TRUE(writer.Finish().ok());
  // A finished file takes no more chunks.
  EXPECT_FALSE(writer.AppendChunk(chunk).ok());
}

// --- LoserTree -------------------------------------------------------------

TEST_F(CompactionTest, LoserTreeMatchesSortedMerge) {
  std::mt19937_64 rng(20260808);
  for (size_t k = 1; k <= 9; ++k) {
    std::vector<std::vector<int64_t>> runs(k);
    std::vector<int64_t> all;
    for (auto& run : runs) {
      const size_t n = rng() % 40;
      for (size_t i = 0; i < n; ++i) {
        run.push_back(static_cast<int64_t>(rng() % 100));
      }
      std::sort(run.begin(), run.end());
      all.insert(all.end(), run.begin(), run.end());
    }
    std::vector<size_t> pos(k, 0);
    LoserTree tree;
    tree.Init(k, [&](size_t a, size_t b) {
      const bool da = pos[a] >= runs[a].size();
      const bool db = pos[b] >= runs[b].size();
      if (da != db) return !da;
      if (da) return a < b;
      if (runs[a][pos[a]] != runs[b][pos[b]]) {
        return runs[a][pos[a]] < runs[b][pos[b]];
      }
      return a < b;
    });
    std::vector<int64_t> merged;
    for (;;) {
      const size_t w = tree.winner();
      if (pos[w] >= runs[w].size()) break;
      merged.push_back(runs[w][pos[w]]);
      ++pos[w];
      tree.Replay();
    }
    std::sort(all.begin(), all.end());
    EXPECT_EQ(merged, all) << "k=" << k;
  }
}

// --- CompactionPlanner -----------------------------------------------------

TEST_F(CompactionTest, PlannerTriggersOnTierRuns) {
  CompactionConfig config;
  config.max_fanin = 8;
  config.trigger_files = 4;
  CompactionPlanner planner(config);

  std::vector<SealedFileRef> files;
  std::vector<uint64_t> sizes;
  for (int i = 0; i < 10; ++i) {
    files.push_back(FakeMeta("seq-0000000" + std::to_string(i) + ".bstf"));
    sizes.push_back(1000);  // tier 0
  }
  CompactionPlan plan = planner.PlanTiered(files, sizes);
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan.begin, 0u);
  EXPECT_EQ(plan.inputs.size(), 8u);  // fan-in bound
  EXPECT_EQ(plan.tier, 0u);
  EXPECT_TRUE(plan.sequence_output);

  // Below the trigger nothing happens.
  files.resize(3);
  sizes.resize(3);
  EXPECT_TRUE(planner.PlanTiered(files, sizes).empty());
}

TEST_F(CompactionTest, PlannerPicksSmallestTierAndRunOffset) {
  CompactionConfig config;
  config.max_fanin = 8;
  config.trigger_files = 4;
  config.tier_ratio = 4.0;
  CompactionPlanner planner(config);

  // Four tier-1 files (~100 KB) followed by four tier-0 files: both runs
  // trigger; the smaller tier wins because churn concentrates there.
  std::vector<SealedFileRef> files;
  std::vector<uint64_t> sizes;
  for (int i = 0; i < 4; ++i) {
    files.push_back(FakeMeta("seq-1000000" + std::to_string(i) + ".bstf"));
    sizes.push_back(100'000);
  }
  for (int i = 0; i < 4; ++i) {
    files.push_back(FakeMeta("seq-2000000" + std::to_string(i) + ".bstf"));
    sizes.push_back(1000);
  }
  CompactionPlan plan = planner.PlanTiered(files, sizes);
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan.begin, 4u);
  EXPECT_EQ(plan.inputs.size(), 4u);
  EXPECT_EQ(plan.tier, 0u);
}

TEST_F(CompactionTest, PlannerSequenceOutputRules) {
  CompactionConfig config;
  config.max_fanin = 2;
  config.trigger_files = 2;
  CompactionPlanner planner(config);

  // Unsequence file inside the window, window != whole list -> the output
  // must keep the unseq name (it can still shadow / be shadowed).
  std::vector<SealedFileRef> files = {
      FakeMeta("seq-00000001.bstf"), FakeMeta("unseq-00000002.bstf"),
      FakeMeta("seq-00000003.bstf")};
  std::vector<uint64_t> sizes = {1000, 1000, 1000};
  CompactionPlan partial = planner.PlanFull(files, sizes);
  ASSERT_EQ(partial.inputs.size(), 2u);
  EXPECT_FALSE(partial.sequence_output);

  // Window == the whole list: the merge IS the total LWW resolution, so
  // the output is sequence even with unseq inputs.
  config.max_fanin = 3;
  CompactionPlanner planner3(config);
  CompactionPlan total = planner3.PlanFull(files, sizes);
  ASSERT_EQ(total.inputs.size(), 3u);
  EXPECT_TRUE(total.sequence_output);

  // A later window of sequence files only is sequence; one holding the
  // unsequence file is not.
  CompactionPlan tail = planner.PlanFull(files, sizes, 1);
  ASSERT_EQ(tail.inputs.size(), 2u);
  EXPECT_FALSE(tail.sequence_output);
  files.push_back(FakeMeta("seq-00000004.bstf"));
  sizes.push_back(1000);
  CompactionPlan seq_tail = planner.PlanFull(files, sizes, 2);
  ASSERT_EQ(seq_tail.inputs.size(), 2u);
  EXPECT_TRUE(seq_tail.sequence_output);
}

TEST_F(CompactionTest, PlannerFullRespectsLimitAndStableBound) {
  CompactionConfig config;
  config.max_fanin = 8;
  config.trigger_files = 4;
  CompactionPlanner planner(config);

  std::vector<SealedFileRef> files;
  std::vector<uint64_t> sizes;
  for (int i = 0; i < 10; ++i) {
    files.push_back(FakeMeta("seq-0000000" + std::to_string(i) + ".bstf"));
    sizes.push_back(1000);
  }
  EXPECT_EQ(planner.PlanFull(files, sizes).inputs.size(), 8u);
  EXPECT_EQ(planner.PlanFull(files, sizes, 0, 3).inputs.size(), 3u);
  EXPECT_TRUE(planner.PlanFull(files, sizes, 0, 1).empty());

  // A window start: the window begins there, keeps the fan-in and the
  // limit, and a lone file (or nothing) past it plans nothing.
  CompactionPlan second = planner.PlanFull(files, sizes, 8);
  ASSERT_EQ(second.inputs.size(), 2u);
  EXPECT_EQ(second.begin, 8u);
  EXPECT_EQ(second.inputs.front(), files[8]);
  EXPECT_EQ(second.inputs.back(), files[9]);
  EXPECT_EQ(second.input_bytes, (std::vector<uint64_t>{1000, 1000}));
  EXPECT_TRUE(second.sequence_output);
  CompactionPlan middle = planner.PlanFull(files, sizes, 2, 6);
  ASSERT_EQ(middle.inputs.size(), 4u);
  EXPECT_EQ(middle.begin, 2u);
  EXPECT_EQ(middle.inputs.front(), files[2]);
  EXPECT_EQ(planner.PlanFull(files, sizes, 1).inputs.size(), 8u);
  EXPECT_TRUE(planner.PlanFull(files, sizes, 9).empty());
  EXPECT_TRUE(planner.PlanFull(files, sizes, 10).empty());
  EXPECT_TRUE(planner.PlanFull(files, sizes, 5, 6).empty());

  // trigger 4 -> at most 3 stable files per occupied tier.
  EXPECT_EQ(planner.StableFileBound(1000), 3u);
  EXPECT_EQ(planner.StableFileBound(1u << 20), 9u);  // tier 2 -> 3 tiers
}

// Property: on seeded random size lists, applying PlanTiered's plans (a
// window becomes one file of its summed size) until it plans nothing leaves
// at most StableFileBound files, whatever the tiers' order.
TEST_F(CompactionTest, PlannerTieredConvergesToStableBound) {
  auto converge = [this](const CompactionPlanner& planner,
                         std::vector<uint64_t> sizes, const std::string& what) {
    std::vector<SealedFileRef> files;
    uint64_t total = 0;
    for (size_t i = 0; i < sizes.size(); ++i) {
      files.push_back(FakeMeta("seq-" + std::to_string(10'000'000 + i) +
                               ".bstf"));
      total += sizes[i];
    }
    const size_t start = files.size();
    for (size_t step = 0;; ++step) {
      const CompactionPlan plan = planner.PlanTiered(files, sizes);
      if (plan.empty()) break;
      ASSERT_LT(step, start) << what;  // each plan removes a file
      uint64_t merged = 0;
      for (uint64_t b : plan.input_bytes) merged += b;
      const auto first = static_cast<ptrdiff_t>(plan.begin);
      const auto last = first + static_cast<ptrdiff_t>(plan.inputs.size());
      files.erase(files.begin() + first + 1, files.begin() + last);
      sizes.erase(sizes.begin() + first + 1, sizes.begin() + last);
      sizes[plan.begin] = merged;
    }
    EXPECT_LE(files.size(), planner.StableFileBound(total)) << what;
  };

  // The stalled list of a seed-23 ingest run, one file per tier letter
  // (s3 s3 s1 s5 ...): no run reaches trigger_files = 4, yet 26 files sit
  // above the bound of 21.
  const CompactionPlanner defaults{CompactionConfig{}};
  const int stalled[] = {3, 3, 1, 5, 3, 3, 1, 1, 1, 5, 3, 3, 3,
                         1, 4, 4, 4, 3, 3, 3, 0, 5, 2, 2, 2, 1};
  std::vector<uint64_t> sizes;
  for (int tier : stalled) {
    // Twice the lower edge of the tier: 128 KiB * 4^(tier - 1).
    sizes.push_back(tier == 0 ? 1000 : (uint64_t{128} << 10) << (2 * (tier - 1)));
  }
  uint64_t total = 0;
  for (uint64_t b : sizes) total += b;
  std::vector<SealedFileRef> files;
  for (size_t i = 0; i < sizes.size(); ++i) {
    files.push_back(FakeMeta("seq-" + std::to_string(10'000'000 + i) + ".bstf"));
  }
  ASSERT_GT(sizes.size(), defaults.StableFileBound(total));
  const CompactionPlan plan = defaults.PlanTiered(files, sizes);
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan.inputs.size(), CompactionConfig::kDefaultMaxFanin);
  converge(defaults, sizes, "stalled list");

  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    CompactionConfig config;
    config.trigger_files = 2 + rng.NextBelow(4);
    config.max_fanin = 2 + rng.NextBelow(8);
    const CompactionPlanner planner(config);
    std::vector<uint64_t> random(2 + rng.NextBelow(60));
    // Log-uniform from 1 KB to 64 MB, so many tiers mix.
    for (uint64_t& b : random) {
      b = static_cast<uint64_t>(1000.0 * std::pow(2.0, rng.NextDouble() * 16));
    }
    converge(planner, random, "seed " + std::to_string(seed));
  }
}

// --- CompactionJob ---------------------------------------------------------

TEST_F(CompactionTest, JobMergesLastWriteWins) {
  std::vector<Timestamp> old_ts, new_ts;
  std::vector<double> old_vals, new_vals;
  for (Timestamp t = 0; t < 100; ++t) {
    old_ts.push_back(t);
    old_vals.push_back(1.0);
  }
  for (Timestamp t = 50; t < 150; ++t) {
    new_ts.push_back(t);
    new_vals.push_back(2.0);
  }
  // The old input also holds a 0-point chunk for sensor "e": the merge
  // must skip it rather than open a run over it or emit an empty chunk.
  const std::string old_path = (dir_ / "seq-00000000.bstf").string();
  TsFileWriter old_writer(old_path);
  ASSERT_TRUE(old_writer.WriteChunkF64("e", {}, {}).ok());
  ASSERT_TRUE(old_writer.WriteChunkF64("s", old_ts, old_vals).ok());
  ASSERT_TRUE(old_writer.Finish().ok());
  ASSERT_EQ(old_writer.Locators().front().second.points, 0u);
  CompactionPlan plan;
  plan.inputs = {std::make_shared<SealedFileMeta>(
                     old_path,
                     std::make_shared<const FooterIndex>(old_writer.Locators()),
                     nullptr),
                 WriteFile("unseq-00000001.bstf", "s", new_ts, new_vals)};
  plan.input_bytes = SizesOf(plan.inputs);
  plan.sequence_output = true;  // window == whole "list" in this test

  CompactionConfig config;
  config.data_dir = dir_.string();
  CompactionJob job(config, nullptr);
  SealedFileRef out;
  CompactionStats stats;
  ASSERT_TRUE(job.Run(plan, &out, &stats).ok());
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(stats.output_points, 150u);
  EXPECT_EQ(stats.input_files, 2u);
  EXPECT_EQ(stats.sensors, 1u);
  EXPECT_GT(stats.output_bytes, 0u);
  EXPECT_EQ(TmpFileCount(), 0u);
  // Output is named after the window's first input plus a generation
  // suffix, so it sorts exactly at the window's list position.
  EXPECT_NE(out->path().find("seq-00000000g000001.bstf"), std::string::npos);

  TsFileReader reader(out->path());
  ASSERT_TRUE(reader.Open().ok());
  EXPECT_EQ(reader.Sensors(), std::vector<std::string>{"s"});
  std::vector<Timestamp> ts;
  std::vector<double> vals;
  ASSERT_TRUE(reader.ReadChunkF64("s", &ts, &vals).ok());
  ASSERT_EQ(ts.size(), 150u);
  for (size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(ts[i], static_cast<Timestamp>(i));
    // [0, 50) only in the old file; [50, 150) the newer input wins.
    EXPECT_EQ(vals[i], ts[i] < 50 ? 1.0 : 2.0) << "t=" << ts[i];
  }
}

TEST_F(CompactionTest, JobCorruptInputFailsCleanly) {
  std::vector<Timestamp> ts;
  std::vector<double> vals;
  for (Timestamp t = 0; t < 3000; ++t) {
    ts.push_back(t);
    vals.push_back(static_cast<double>(t));
  }
  CompactionPlan plan;
  plan.inputs = {WriteFile("seq-00000000.bstf", "s", ts, vals),
                 WriteFile("seq-00000001.bstf", "s", ts, vals)};
  plan.input_bytes = SizesOf(plan.inputs);
  plan.sequence_output = true;

  // Truncate the second input mid-chunk after its footer was captured.
  std::filesystem::resize_file(plan.inputs[1]->path(), 64);

  CompactionConfig config;
  config.data_dir = dir_.string();
  CompactionJob job(config, nullptr);
  SealedFileRef out;
  CompactionStats stats;
  EXPECT_FALSE(job.Run(plan, &out, &stats).ok());
  EXPECT_EQ(out, nullptr);
  // No temporary (or final) output left behind.
  EXPECT_EQ(TmpFileCount(), 0u);
  size_t bstf = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    if (e.path().extension() == ".bstf") ++bstf;
  }
  EXPECT_EQ(bstf, 2u);  // just the two inputs
}

// Regression: the merge used to parse chunks with its own reader, which
// skipped the page-header-vs-data check queries make, so it accepted a
// page whose header lied about its last timestamp and wrote a clean output
// from it. Compaction must reject exactly what a query rejects.
TEST_F(CompactionTest, JobRejectsPageHeaderThatDisagreesWithData) {
  std::vector<Timestamp> ts;
  std::vector<double> vals;
  for (Timestamp t = 0; t < 3000; ++t) {
    ts.push_back(t);
    vals.push_back(static_cast<double>(t));
  }
  CompactionPlan plan;
  plan.inputs = {WriteFile("seq-00000000.bstf", "s", ts, vals),
                 WriteFile("seq-00000001.bstf", "s", ts, vals)};
  plan.input_bytes = SizesOf(plan.inputs);
  plan.sequence_output = true;

  // Page 0 holds [0, 1023]; claim it ends at 1000. Both zigzag varints
  // are two bytes, so every later offset and the footer stay valid.
  RewritePageMaxTime(plan.inputs[1]->path(), "s", 0, 1023, 1000);
  {
    std::vector<TvPairDouble> out;
    std::optional<PageReader> pages;
    ASSERT_TRUE(plan.inputs[1]->OpenChunk("s", Locator(plan.inputs[1], "s"),
                                          &pages)
                    .ok());
    EXPECT_TRUE(pages->Query(0, 3000, &out).IsCorruption());
  }

  CompactionConfig config;
  config.data_dir = dir_.string();
  CompactionJob job(config, nullptr);
  SealedFileRef out;
  CompactionStats stats;
  const Status st = job.Run(plan, &out, &stats);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(out, nullptr);
  EXPECT_EQ(TmpFileCount(), 0u);
  EXPECT_TRUE(std::filesystem::exists(plan.inputs[0]->path()));
  EXPECT_TRUE(std::filesystem::exists(plan.inputs[1]->path()));
}

// A page whose first and last times match its header but whose middle
// goes backwards is not a sorted run: the merge must reject it as corrupt
// instead of handing the writer an unsorted page.
TEST_F(CompactionTest, JobRejectsPageWhoseTimesGoBackwards) {
  std::vector<Timestamp> ts;
  std::vector<double> vals;
  for (Timestamp t = 0; t < 100; ++t) {
    ts.push_back(t);
    vals.push_back(static_cast<double>(t));
  }
  const std::string path = (dir_ / "seq-00000001.bstf").string();
  TsFileWriter writer(path);
  // PLAIN times are fixed64 each, so two of them swap in place.
  ASSERT_TRUE(writer
                  .WriteChunkF64("s", ts, vals, Encoding::kPlain,
                                 Encoding::kGorilla)
                  .ok());
  ASSERT_TRUE(writer.Finish().ok());
  const ChunkLocator locator = writer.Locators().front().second;
  std::vector<uint8_t> bytes = Slurp(path);
  PageDirectory directory;
  ASSERT_TRUE(ParsePageDirectory(bytes.data() + locator.offset,
                                 locator.length, "s", locator, &directory)
                  .ok());
  uint8_t* times = bytes.data() + locator.offset +
                   directory.pages[0].time_offset;
  std::swap_ranges(times + 8 * 10, times + 8 * 11, times + 8 * 20);
  Spit(path, bytes);

  CompactionPlan plan;
  plan.inputs = {WriteFile("seq-00000000.bstf", "s", ts, vals),
                 std::make_shared<SealedFileMeta>(
                     path,
                     std::make_shared<const FooterIndex>(writer.Locators()),
                     nullptr)};
  plan.input_bytes = SizesOf(plan.inputs);
  plan.sequence_output = true;
  CompactionConfig config;
  config.data_dir = dir_.string();
  CompactionJob job(config, nullptr);
  SealedFileRef out;
  CompactionStats stats;
  const Status st = job.Run(plan, &out, &stats);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(TmpFileCount(), 0u);
}

TEST_F(CompactionTest, JobTruncatedMidChunkFailsCleanly) {
  std::vector<Timestamp> ts;
  std::vector<double> vals;
  for (Timestamp t = 0; t < 4000; ++t) {
    ts.push_back(t);
    vals.push_back(static_cast<double>(t));
  }
  CompactionPlan plan;
  plan.inputs = {WriteFile("seq-00000000.bstf", "s", ts, vals),
                 WriteFile("seq-00000001.bstf", "s", ts, vals)};
  plan.input_bytes = SizesOf(plan.inputs);
  plan.sequence_output = true;

  // Cut the second input in the middle of its chunk, after the footer was
  // captured: the merge must surface an error, never fabricate points.
  const ChunkLocator locator = Locator(plan.inputs[1], "s");
  std::filesystem::resize_file(plan.inputs[1]->path(),
                               locator.offset + locator.length / 2);

  CompactionConfig config;
  config.data_dir = dir_.string();
  CompactionJob job(config, nullptr);
  SealedFileRef out;
  CompactionStats stats;
  EXPECT_FALSE(job.Run(plan, &out, &stats).ok());
  EXPECT_EQ(out, nullptr);
  EXPECT_EQ(TmpFileCount(), 0u);
}

// Seeded mutation oracle over real job inputs. Each round damages one
// input — 1-4 flipped bytes, biased toward page headers, or a truncation —
// and runs the job. Either it fails cleanly (Corruption or IOError, no
// temporary left, inputs still on disk), or every input still answers a
// full-range query and the output is exactly the last-write-wins merge of
// those answers. tools/ci.sh runs this under ASan and UBSan, where any
// out-of-bounds read or undefined arithmetic fails the run.
TEST_F(CompactionTest, JobMutatedInputsFailCleanlyOrMergeExactly) {
  constexpr size_t kInputs = 3;
  constexpr size_t kPage = 128;
  const std::vector<std::string> sensors = {"a", "b", "c"};
  Rng data_rng(7);
  std::vector<InputFile> files(kInputs);
  for (size_t i = 0; i < kInputs; ++i) {
    for (size_t s = 0; s < sensors.size(); ++s) {
      // Shifted, overlapping ranges, so newer inputs shadow older ones.
      InputChunk chunk{sensors[s], {}, {}, kPage};
      Timestamp t = static_cast<Timestamp>(i * 400 + s * 50);
      for (size_t j = 0; j < 1000; ++j) {
        chunk.ts.push_back(t);
        chunk.vals.push_back(static_cast<double>(i * 10'000 + j) * 0.25);
        t += 1 + static_cast<Timestamp>(data_rng.NextBelow(3));
      }
      files[i].chunks.push_back(std::move(chunk));
    }
  }
  const CompactionPlan plan = WritePlan(files);

  CompactionConfig config;
  config.data_dir = dir_.string();
  config.points_per_page = kPage;
  const MutationTally tally = RunMutationRounds(plan, config, 300, 20240917,
                                                Aim::kHeaders);
  // Both outcomes must actually occur for the oracle to mean anything.
  EXPECT_GT(tally.failed, 100u);
  EXPECT_GT(tally.merged, 10u);
}

// The same oracle over time-disjoint inputs, whose pages a job may carry
// over without reordering them. A third of the flips land in the page
// headers' value statistics (min, max, sum), which no reader checks
// against the data: the job must still succeed there, and every output
// header and footer must carry statistics recomputed from the points.
TEST_F(CompactionTest, JobMutatedDisjointInputsFailCleanlyOrMergeExactly) {
  constexpr size_t kInputs = 3;
  constexpr size_t kPage = 128;
  const std::vector<std::string> sensors = {"a", "b", "c"};
  Rng data_rng(11);
  std::vector<InputFile> files(kInputs);
  for (size_t i = 0; i < kInputs; ++i) {
    for (size_t s = 0; s < sensors.size(); ++s) {
      InputChunk chunk{sensors[s], {}, {}, kPage};
      Timestamp t = static_cast<Timestamp>(i * 5000 + s * 50);
      for (size_t j = 0; j < 1000; ++j) {
        chunk.ts.push_back(t);
        chunk.vals.push_back(static_cast<double>(i * 10'000 + j) * 0.1);
        t += 1 + static_cast<Timestamp>(data_rng.NextBelow(3));
      }
      files[i].chunks.push_back(std::move(chunk));
    }
  }
  const CompactionPlan plan = WritePlan(files);

  CompactionConfig config;
  config.data_dir = dir_.string();
  config.points_per_page = kPage;
  const MutationTally tally = RunMutationRounds(plan, config, 300, 20261019,
                                                Aim::kValueStats);
  EXPECT_GT(tally.failed, 100u);
  EXPECT_GT(tally.merged, 50u);
  EXPECT_GT(tally.stats_only_merged, 10u);
}

// The same oracle over a dense input and clusters of late points spread
// over all of it, the shape whose clean pages the job copies. A third of
// the flips land in the dense input's page-header point counts and
// first/last times, which the copy decision reads before any decode.
TEST_F(CompactionTest, JobMutatedScatteredInputsFailCleanlyOrMergeExactly) {
  const CompactionPlan plan = WritePlan(MakeShape(Shape::kScatteredLate, 5));
  CompactionConfig config;
  config.data_dir = dir_.string();
  config.points_per_page = kOutputPage;
  const MutationTally tally = RunMutationRounds(plan, config, 300, 20261101,
                                                Aim::kInput0Times);
  // Measured: 243 failed, 57 merged.
  EXPECT_GT(tally.failed, 200u);
  EXPECT_GT(tally.merged, 40u);
}

// --- differential oracle: the job against the two-pass re-encoding merge ---

// The job over seeded input shapes against ReferenceMerge: the same
// decoded points and footer statistics, bit for bit, and page headers
// that fold their own points.
TEST_F(CompactionTest, JobMatchesReferenceMergeOverSeededShapes) {
  const std::vector<std::pair<Shape, const char*>> shapes = {
      {Shape::kDisjoint, "disjoint"},
      {Shape::kTouching, "touching"},
      {Shape::kTailOverlap, "tail overlap"},
      {Shape::kScatteredLate, "scattered late"},
      {Shape::kInterleaved, "interleaved"},
      {Shape::kDuplicates, "duplicates"},
      {Shape::kSpecialValues, "special values"},
      {Shape::kPlainInput, "plain input"},
      {Shape::kBstf1Input, "bstf1 input"},
  };
  for (const auto& [shape, shape_name] : shapes) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      const std::string label =
          std::string(shape_name) + " seed " + std::to_string(seed);
      ClearDir();
      const std::vector<InputFile> files = MakeShape(shape, seed);
      const CompactionPlan plan = WritePlan(files);
      CompactionConfig config;
      config.data_dir = dir_.string();
      config.points_per_page = kOutputPage;
      config.footer_stats = seed != 4;  // one BSTF1 output per shape

      const std::string ref_path = (dir_ / "reference.bstf").string();
      const FooterEntries ref_footer = ReferenceMerge(plan, config, ref_path);
      CompactionJob job(config, nullptr);
      SealedFileRef out;
      CompactionStats stats;
      const Status st = job.Run(plan, &out, &stats);
      ASSERT_TRUE(st.ok()) << label << ": " << st.ToString();
      ExpectMatchesReference(out, ref_path, ref_footer, label);
      out->MarkObsolete();

      // Which input pages were copied and which merged.
      std::vector<std::map<std::string, std::vector<PageEntry>>> pages;
      size_t input_pages = 0;
      for (const SealedFileRef& in : plan.inputs) {
        pages.push_back(PagesOf(in));
        for (const auto& [sensor, entries] : pages.back()) {
          input_pages += entries.size();
        }
      }
      EXPECT_EQ(stats.pages_copied + stats.pages_merged, input_pages) << label;
      const size_t want_merged = PointRuleMergedPages(plan, kOutputPage);
      switch (shape) {
        case Shape::kDisjoint:
        case Shape::kBstf1Input:
          EXPECT_EQ(want_merged, 0u) << label;
          break;
        case Shape::kPlainInput: {
          // Its pages overlap nothing, but their encodings are not the
          // output's.
          size_t plain = 0;
          for (const auto& [sensor, entries] : pages[1]) plain += entries.size();
          EXPECT_EQ(want_merged, plain) << label;
          break;
        }
        case Shape::kTailOverlap: {
          // At most the unsequence pages and the big file's pages whose
          // intervals they overlap.
          size_t overlapping = 0;
          for (const auto& [sensor, tail] : pages[1]) {
            overlapping += tail.size();
            for (const PageEntry& big : pages[0][sensor]) {
              overlapping += std::any_of(tail.begin(), tail.end(),
                                         [&big](const PageEntry& e) {
                                           return e.min_t <= big.max_t &&
                                                  big.min_t <= e.max_t;
                                         });
            }
          }
          EXPECT_LE(want_merged, overlapping) << label;
          break;
        }
        case Shape::kScatteredLate:
          // Some late points rewrite a dense timestamp, some fill a gap.
          for (size_t c = 0; c < files[1].chunks.size(); ++c) {
            const std::vector<Timestamp>& dense = files[0].chunks[c].ts;
            const std::vector<Timestamp>& late = files[1].chunks[c].ts;
            const auto rewrites = std::count_if(
                late.begin(), late.end(), [&dense](Timestamp t) {
                  return std::binary_search(dense.begin(), dense.end(), t);
                });
            EXPECT_GT(rewrites, 0) << label;
            EXPECT_LT(static_cast<size_t>(rewrites), late.size()) << label;
          }
          // Late points land in few dense pages; the rest are copied.
          EXPECT_GT(stats.pages_copied, stats.pages_merged) << label;
          break;
        default:
          break;
      }
      EXPECT_EQ(stats.pages_merged, want_merged) << label;
    }
  }
}

// Pages that overlap no other input page keep their encoded buffers, byte
// for byte, under a header rebuilt from their points.
TEST_F(CompactionTest, JobCopiesDisjointPagesByteForByte) {
  std::vector<InputFile> files(3);
  Timestamp t = 0;
  for (size_t i = 0; i < files.size(); ++i) {
    InputChunk chunk{"s", {}, {}, 100};
    for (size_t j = 0; j < 250; ++j) {
      chunk.ts.push_back(t);
      chunk.vals.push_back(std::sin(static_cast<double>(t)));
      t += 1 + static_cast<Timestamp>(j % 3);
    }
    files[i].chunks.push_back(std::move(chunk));
  }
  const CompactionPlan plan = WritePlan(files);
  CompactionConfig config;
  config.data_dir = dir_.string();
  config.points_per_page = 128;
  CompactionJob job(config, nullptr);
  SealedFileRef out;
  CompactionStats stats;
  ASSERT_TRUE(job.Run(plan, &out, &stats).ok());
  EXPECT_EQ(stats.pages_copied, 9u);  // 3 inputs x (100 + 100 + 50)
  EXPECT_EQ(stats.pages_merged, 0u);
  EXPECT_EQ(stats.output_points, 750u);

  // Each page's encoded buffers, in time order across the files.
  auto buffers = [](const std::string& path) {
    std::vector<std::vector<uint8_t>> out;
    const std::vector<uint8_t> bytes = Slurp(path);
    FooterMap footer;
    EXPECT_TRUE(ReadTsFileFooter(path, &footer).ok());
    const ChunkLocator& locator = footer.at("s");
    const uint8_t* chunk = bytes.data() + locator.offset;
    PageDirectory directory;
    EXPECT_TRUE(
        ParsePageDirectory(chunk, locator.length, "s", locator, &directory)
            .ok());
    for (const PageEntry& e : directory.pages) {
      out.emplace_back(chunk + e.time_offset,
                       chunk + e.time_offset + e.time_size);
      out.emplace_back(chunk + e.value_offset,
                       chunk + e.value_offset + e.value_size);
    }
    return out;
  };
  std::vector<std::vector<uint8_t>> want;
  for (const SealedFileRef& in : plan.inputs) {
    const auto page_buffers = buffers(in->path());
    want.insert(want.end(), page_buffers.begin(), page_buffers.end());
  }
  EXPECT_EQ(buffers(out->path()), want);
  ExpectPageHeadersFoldTheirPoints(out->path(), "copied");
}

TEST_F(CompactionTest, JobStreamingMemoryIsBoundedByFaninTimesPageSize) {
  // Four interleaved 50k-point inputs: 200k total, comfortably above the
  // default 100k-point memtable budget. The old materialize-everything
  // compactor would hold all 200k points; the streaming merge must stay
  // within fan-in + 1 pages plus the lookahead point.
  const size_t kPerFile = 50'000;
  const size_t kInputs = 4;
  CompactionPlan plan;
  for (size_t i = 0; i < kInputs; ++i) {
    std::vector<Timestamp> ts;
    std::vector<double> vals;
    for (size_t j = 0; j < kPerFile; ++j) {
      ts.push_back(static_cast<Timestamp>(j * kInputs + i));
      vals.push_back(static_cast<double>(i));
    }
    plan.inputs.push_back(
        WriteFile("seq-0000000" + std::to_string(i) + ".bstf", "s", ts, vals));
  }
  plan.input_bytes = SizesOf(plan.inputs);
  plan.sequence_output = true;

  CompactionConfig config;
  config.data_dir = dir_.string();
  config.points_per_page = 1024;
  CompactionJob job(config, nullptr);
  SealedFileRef out;
  CompactionStats stats;
  ASSERT_TRUE(job.Run(plan, &out, &stats).ok());
  EXPECT_EQ(stats.output_points, kPerFile * kInputs);
  // k cursor pages + 1 output page + the pending lookahead point.
  const size_t bound = (kInputs + 1) * config.points_per_page + 1;
  EXPECT_LE(stats.max_resident_points, bound);
  EXPECT_GT(stats.max_resident_points, 0u);

  TsFileReader reader(out->path());
  ASSERT_TRUE(reader.Open().ok());
  std::vector<Timestamp> ts;
  std::vector<double> vals;
  ASSERT_TRUE(reader.ReadChunkF64("s", &ts, &vals).ok());
  ASSERT_EQ(ts.size(), kPerFile * kInputs);
  for (size_t i = 1; i < ts.size(); ++i) {
    ASSERT_LT(ts[i - 1], ts[i]);
  }
}

// --- StorageEngine integration --------------------------------------------

// The sensors of a job merge on several workers, but their chunks reach
// the file in name order: a job over many uneven, partly overlapping
// sensors writes the bytes and counts of a one-worker run at any worker
// count.
TEST_F(CompactionTest, ParallelJobWritesTheOneWorkerBytes) {
  const size_t sensors = ManySensors();
  Rng rng(27);
  std::vector<InputFile> files(3);
  for (size_t k = 0; k < sensors; ++k) {
    // Zero-padded, so name order is k order.
    const std::string sensor = "s" + std::to_string(1000 + k);
    InputChunk base{sensor, {}, {}, 17 + rng.NextBelow(kOutputPage - 16)};
    const size_t points = 20 + rng.NextBelow(6000);  // uneven merges
    Timestamp t = static_cast<Timestamp>(rng.NextBelow(50));
    for (size_t j = 0; j < points; ++j) {
      base.ts.push_back(t);
      base.vals.push_back(rng.NextDouble());
      t += 1 + static_cast<Timestamp>(rng.NextBelow(3));
    }
    // Later files land over the base's last quarter in even sensors, and
    // after it in odd ones; every third sensor gets a second late file
    // over the first one, ties included.
    const Timestamp late_start = k % 2 == 0
                                     ? base.ts[base.ts.size() * 3 / 4]
                                     : base.ts.back() + 5;
    for (size_t f = 1; f < files.size(); ++f) {
      if (f == 2 && k % 3 != 0) continue;
      InputChunk late{sensor, {}, {}, kOutputPage};
      Timestamp u = late_start;
      const size_t count = 10 + rng.NextBelow(400);
      for (size_t j = 0; j < count; ++j) {
        late.ts.push_back(u);
        late.vals.push_back(rng.NextDouble());
        u += 1 + static_cast<Timestamp>(rng.NextBelow(2));
      }
      files[f].chunks.push_back(std::move(late));
    }
    files[0].chunks.push_back(std::move(base));
  }
  const CompactionPlan plan = WritePlan(files);
  CompactionConfig config;
  config.data_dir = dir_.string();
  config.points_per_page = kOutputPage;

  // 0 keeps the host's worker count.
  auto run = [&](size_t workers, CompactionStats* stats) {
    CompactionJob job(config, nullptr);
    if (workers != 0) CompactionJobTestPeer::SetWorkers(&job, workers);
    SealedFileRef out;
    const Status st = job.Run(plan, &out, stats);
    EXPECT_TRUE(st.ok()) << st.ToString();
    std::vector<uint8_t> bytes;
    if (out != nullptr) {
      bytes = Slurp(out->path());
      std::filesystem::remove(out->path());
    }
    return bytes;
  };
  CompactionStats serial;
  const std::vector<uint8_t> want = run(1, &serial);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(serial.workers, 1u);
  EXPECT_EQ(serial.sensors, sensors);
  EXPECT_GT(serial.pages_copied, 0u);
  EXPECT_GT(serial.pages_merged, 0u);
  // Per merge: the cursors' pages (input pages hold at most kOutputPage
  // points), the output page and the lookahead point.
  const size_t merge_bound = (plan.inputs.size() + 1) * kOutputPage + 1;
  EXPECT_LE(serial.max_resident_points, merge_bound);

  const size_t threads = std::max(1u, std::thread::hardware_concurrency());
  for (const size_t workers : {size_t{0}, size_t{2}, size_t{3}, sensors + 5}) {
    const std::string label = "workers " + std::to_string(workers);
    CompactionStats stats;
    EXPECT_EQ(run(workers, &stats), want) << label;
    EXPECT_EQ(stats.workers,
              std::min(workers == 0 ? threads : workers, sensors))
        << label;
    EXPECT_EQ(stats.output_points, serial.output_points) << label;
    EXPECT_EQ(stats.pages_copied, serial.pages_copied) << label;
    EXPECT_EQ(stats.pages_merged, serial.pages_merged) << label;
    // The per-merge peak does not depend on the worker count; with at most
    // `stats.workers` merges at once, the job holds at most that many
    // times merge_bound decoded points.
    EXPECT_EQ(stats.max_resident_points, serial.max_resident_points) << label;
    EXPECT_LE(stats.max_resident_points, merge_bound) << label;
  }
  EXPECT_EQ(TmpFileCount(), 0u);
}

// A corrupt chunk in a middle sensor fails a parallel job as cleanly as a
// serial one: Corruption, no temporary left, the registry unchanged.
TEST_F(CompactionTest, CorruptMiddleSensorFailsParallelJobCleanly) {
  const size_t sensors = ManySensors();
  auto name = [](size_t k) { return "s" + std::to_string(1000 + k); };
  StorageEngine engine(Options());
  ASSERT_TRUE(engine.Open().ok());
  for (Timestamp gen = 0; gen < 3; ++gen) {
    for (size_t k = 0; k < sensors; ++k) {
      for (Timestamp t = 0; t < 2000; ++t) {
        ASSERT_TRUE(engine.Write(name(k), gen * 2000 + t,
                                 static_cast<double>(t))
                        .ok());
      }
    }
    ASSERT_TRUE(engine.FlushAll().ok());
  }
  auto sealed_names = [this] {
    std::set<std::string> names;
    for (const auto& e : std::filesystem::directory_iterator(dir_)) {
      if (e.path().extension() == ".bstf") {
        names.insert(e.path().filename().string());
      }
    }
    return names;
  };
  const std::set<std::string> before = sealed_names();
  ASSERT_EQ(before.size(), 3u);
  ASSERT_EQ(engine.sealed_file_count(), 3u);

  // The middle file's middle sensor: page 0 holds [2000, 3023]; claim it
  // ends at 3000 (both zigzag varints take two bytes).
  const std::string victim = (dir_ / *std::next(before.begin())).string();
  RewritePageMaxTime(victim, name(sensors / 2), 0, 3023, 3000);

  const Status st = engine.Compact();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(engine.sealed_file_count(), 3u);
  EXPECT_EQ(sealed_names(), before);
  EXPECT_EQ(TmpFileCount(), 0u);
  const EngineMetricsSnapshot snap = engine.GetMetricsSnapshot();
  EXPECT_EQ(snap.compaction_failures, 1u);
  EXPECT_EQ(snap.compaction_jobs, 0u);
  // A sensor outside the damage still reads all its points.
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query(name(0), 0, 6000, &out).ok());
  EXPECT_EQ(out.size(), 6000u);
}

TEST_F(CompactionTest, CompactPreservesQueryAndAggregate) {
  StorageEngine engine(Options());
  ASSERT_TRUE(engine.Open().ok());
  // Seq file: [0, 1000). Then two overwrite generations that land partly
  // in unsequence files (t <= watermark) and partly in sequence files.
  for (Timestamp t = 0; t < 1000; ++t) {
    ASSERT_TRUE(engine.Write("s", t, static_cast<double>(t)).ok());
  }
  ASSERT_TRUE(engine.FlushAll().ok());
  for (Timestamp t = 500; t < 1500; ++t) {
    ASSERT_TRUE(engine.Write("s", t, static_cast<double>(t) + 10000).ok());
  }
  ASSERT_TRUE(engine.FlushAll().ok());
  for (Timestamp t = 200; t < 300; ++t) {
    ASSERT_TRUE(engine.Write("s", t, static_cast<double>(t) + 20000).ok());
  }
  ASSERT_TRUE(engine.FlushAll().ok());
  ASSERT_GE(engine.sealed_file_count(), 3u);

  std::vector<TvPairDouble> before;
  ASSERT_TRUE(engine.Query("s", 0, 2000, &before).ok());
  TsFileReader::RangeStats agg_before;
  ASSERT_TRUE(engine.AggregateFast("s", 0, 2000, &agg_before).ok());

  ASSERT_TRUE(engine.Compact().ok());
  EXPECT_EQ(engine.sealed_file_count(), 1u);

  std::vector<TvPairDouble> after;
  ASSERT_TRUE(engine.Query("s", 0, 2000, &after).ok());
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].t, before[i].t);
    EXPECT_EQ(after[i].v, before[i].v);
  }

  // The single compacted output is a sequence file, so the statistics
  // pushdown fast path applies — with identical results.
  TsFileReader::RangeStats agg_after;
  bool fast = false;
  ASSERT_TRUE(engine.AggregateFast("s", 0, 2000, &agg_after, &fast).ok());
  EXPECT_TRUE(fast);
  EXPECT_EQ(agg_after.count, agg_before.count);
  EXPECT_EQ(agg_after.sum, agg_before.sum);
  EXPECT_EQ(agg_after.min, agg_before.min);
  EXPECT_EQ(agg_after.max, agg_before.max);
  EXPECT_EQ(agg_after.first, agg_before.first);
  EXPECT_EQ(agg_after.last, agg_before.last);

  const EngineMetricsSnapshot snap = engine.GetMetricsSnapshot();
  EXPECT_GE(snap.compaction_jobs, 1u);
  EXPECT_GE(snap.compaction_input_files, 3u);
  EXPECT_GT(snap.compaction_output_bytes, 0u);
  EXPECT_EQ(snap.compaction_failures, 0u);
}

TEST_F(CompactionTest, CompactSurvivesReopen) {
  EngineOptions opt = Options();
  {
    StorageEngine engine(opt);
    ASSERT_TRUE(engine.Open().ok());
    for (int gen = 0; gen < 4; ++gen) {
      for (Timestamp t = 0; t < 200; ++t) {
        ASSERT_TRUE(
            engine.Write("s", t, static_cast<double>(t + gen * 1000)).ok());
      }
      ASSERT_TRUE(engine.FlushAll().ok());
    }
    ASSERT_TRUE(engine.Compact().ok());
    EXPECT_EQ(engine.sealed_file_count(), 1u);
  }
  StorageEngine reopened(opt);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.sealed_file_count(), 1u);
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(reopened.Query("s", 0, 1000, &out).ok());
  ASSERT_EQ(out.size(), 200u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].v, static_cast<double>(i + 3000));  // last generation
  }
}

// Compact() merges level by level: windows of max_fanin files across the
// list, then the next level. Over disjoint flushed files every page is
// copied, once per level, so the points written stay within the level
// count times the points stored (merging the growing head file window
// after window would write twice that here), and a reopen answers like
// the compacted engine.
TEST_F(CompactionTest, CompactMergesLevelByLevel) {
  constexpr size_t kFiles = 20;
  constexpr size_t kPoints = 300;  // per file and sensor: one input page
  constexpr size_t kLevels = 3;    // 20 -> 7 -> 3 -> 1 files at fan-in 3
  const std::vector<std::string> sensors = {"a", "b"};
  EngineOptions opt = Options();
  opt.compaction_max_fanin = 3;
  using Answers = std::vector<std::vector<std::pair<Timestamp, uint64_t>>>;
  auto query_all = [&sensors](StorageEngine& engine) {
    Answers out(sensors.size());
    for (size_t s = 0; s < sensors.size(); ++s) {
      std::vector<TvPairDouble> pts;
      EXPECT_TRUE(engine.Query(sensors[s], 0, kFiles * 1000, &pts).ok());
      for (const TvPairDouble& p : pts) out[s].push_back({p.t, Bits(p.v)});
    }
    return out;
  };

  Answers before, after;
  {
    StorageEngine engine(opt);
    ASSERT_TRUE(engine.Open().ok());
    for (size_t f = 0; f < kFiles; ++f) {
      for (size_t s = 0; s < sensors.size(); ++s) {
        for (size_t j = 0; j < kPoints; ++j) {
          const auto t = static_cast<Timestamp>(f * 1000 + j * 3);
          ASSERT_TRUE(engine
                          .Write(sensors[s], t,
                                 static_cast<double>(t) * 0.1 +
                                     static_cast<double>(s))
                          .ok());
        }
      }
      ASSERT_TRUE(engine.FlushAll().ok());
    }
    ASSERT_EQ(engine.sealed_file_count(), kFiles);
    before = query_all(engine);
    ASSERT_TRUE(engine.Compact().ok());
    EXPECT_EQ(engine.sealed_file_count(), 1u);
    after = query_all(engine);
    EXPECT_EQ(after, before);

    const EngineMetricsSnapshot snap = engine.GetMetricsSnapshot();
    EXPECT_EQ(snap.compaction_jobs, 10u);  // 7 + 2 + 1
    EXPECT_EQ(snap.compaction_pages_merged, 0u);
    const size_t stored = kFiles * sensors.size() * kPoints;
    const size_t written = snap.compaction_pages_copied * kPoints;
    EXPECT_GE(written, stored);
    EXPECT_LE(written, kLevels * stored);
  }
  StorageEngine reopened(opt);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.sealed_file_count(), 1u);
  EXPECT_EQ(query_all(reopened), after);
}

TEST_F(CompactionTest, EngineCompactFailureLeavesRegistryUnchanged) {
  StorageEngine engine(Options());
  ASSERT_TRUE(engine.Open().ok());
  for (int gen = 0; gen < 3; ++gen) {
    for (Timestamp t = 0; t < 2000; ++t) {
      ASSERT_TRUE(
          engine.Write("s", t + gen * 2000, static_cast<double>(t)).ok());
    }
    ASSERT_TRUE(engine.FlushAll().ok());
  }
  const size_t files_before = engine.sealed_file_count();
  ASSERT_GE(files_before, 3u);

  // Truncate one sealed file on disk; its in-memory footer now points
  // past EOF, so the merge must fail without touching the registry.
  std::string victim;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    if (e.path().extension() == ".bstf") {
      victim = e.path().string();
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  std::filesystem::resize_file(victim, 16);

  EXPECT_FALSE(engine.Compact().ok());
  EXPECT_EQ(engine.sealed_file_count(), files_before);
  EXPECT_EQ(TmpFileCount(), 0u);
  const EngineMetricsSnapshot snap = engine.GetMetricsSnapshot();
  EXPECT_GE(snap.compaction_failures, 1u);
  EXPECT_EQ(snap.compaction_jobs, 0u);
}

TEST_F(CompactionTest, OrphanTmpOutputsSweptOnOpen) {
  // A crash mid-compaction leaves "<name>.bstf.tmp"; Open must remove it
  // (it was never renamed, so it is not part of the registry).
  const std::string orphan = (dir_ / "seq-00000042.bstf.tmp").string();
  std::ofstream(orphan, std::ios::binary) << "partial garbage";
  ASSERT_TRUE(std::filesystem::exists(orphan));

  StorageEngine engine(Options());
  ASSERT_TRUE(engine.Open().ok());
  EXPECT_FALSE(std::filesystem::exists(orphan));
  EXPECT_EQ(engine.sealed_file_count(), 0u);
}

TEST_F(CompactionTest, CompactStepHonorsTriggerAndFanin) {
  EngineOptions opt = Options();
  opt.compaction_trigger_files = 4;
  opt.compaction_max_fanin = 4;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());

  // Two small files: below the trigger, the planner must stand down.
  for (int gen = 0; gen < 2; ++gen) {
    for (Timestamp t = 0; t < 100; ++t) {
      ASSERT_TRUE(
          engine.Write("s", t + gen * 100, static_cast<double>(t)).ok());
    }
    ASSERT_TRUE(engine.FlushAll().ok());
  }
  bool performed = true;
  ASSERT_TRUE(engine.CompactStep(&performed).ok());
  EXPECT_FALSE(performed);
  EXPECT_EQ(engine.sealed_file_count(), 2u);

  // Two more push tier 0 to the trigger; one step merges exactly fan-in.
  for (int gen = 2; gen < 4; ++gen) {
    for (Timestamp t = 0; t < 100; ++t) {
      ASSERT_TRUE(
          engine.Write("s", t + gen * 100, static_cast<double>(t)).ok());
    }
    ASSERT_TRUE(engine.FlushAll().ok());
  }
  ASSERT_TRUE(engine.CompactStep(&performed).ok());
  EXPECT_TRUE(performed);
  EXPECT_EQ(engine.sealed_file_count(), 1u);  // 4 merged into 1

  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("s", 0, 400, &out).ok());
  EXPECT_EQ(out.size(), 400u);
}

TEST_F(CompactionTest, BackgroundSchedulerConvergesToTierBound) {
  EngineOptions opt = Options();
  opt.compaction_enabled = true;
  opt.compaction_trigger_files = 2;
  opt.compaction_max_fanin = 4;
  opt.compaction_check_interval_ms = 10;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  ASSERT_TRUE(engine.compaction_enabled());

  for (int gen = 0; gen < 8; ++gen) {
    for (Timestamp t = 0; t < 500; ++t) {
      ASSERT_TRUE(engine
                      .Write("s", t + gen * 500,
                             static_cast<double>(t + gen * 500))
                      .ok());
    }
    ASSERT_TRUE(engine.FlushAll().ok());
  }

  // The background thread must drive the registry down to the planner's
  // stable bound without any explicit Compact call.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (engine.sealed_file_count() > engine.CompactionFileBound() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_LE(engine.sealed_file_count(), engine.CompactionFileBound());

  std::vector<TvPairDouble> out;
  ASSERT_TRUE(engine.Query("s", 0, 4000, &out).ok());
  ASSERT_EQ(out.size(), 4000u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].t, static_cast<Timestamp>(i));
    EXPECT_EQ(out[i].v, static_cast<double>(i));
  }
}

// --- output naming and restart priority -----------------------------------

TEST_F(CompactionTest, CompactionOutputNameSortsAtWindowPosition) {
  std::string base;
  size_t gen = 123;
  ASSERT_TRUE(ParseSealedFileName("seq-00000005.bstf", &base, &gen).ok());
  EXPECT_EQ(base, "00000005");
  EXPECT_EQ(gen, 0u);
  ASSERT_TRUE(
      ParseSealedFileName("unseq-00000005g000003.bstf", &base, &gen).ok());
  EXPECT_EQ(base, "00000005");
  EXPECT_EQ(gen, 3u);
  EXPECT_FALSE(ParseSealedFileName("nodash.bstf", &base, &gen).ok());
  EXPECT_FALSE(ParseSealedFileName("seq-abc.bstf", &base, &gen).ok());
  EXPECT_FALSE(ParseSealedFileName("seq-00000005.tmp", &base, &gen).ok());
  // Generation must be exactly six digits or lexicographic order breaks.
  EXPECT_FALSE(ParseSealedFileName("seq-00000005g01.bstf", &base, &gen).ok());

  std::string name;
  ASSERT_TRUE(CompactionOutputName("seq-00000005.bstf", true, &name).ok());
  EXPECT_EQ(name, "seq-00000005g000001.bstf");
  ASSERT_TRUE(
      CompactionOutputName("seq-00000005g000001.bstf", false, &name).ok());
  EXPECT_EQ(name, "unseq-00000005g000002.bstf");
  // Generation cap: refuse rather than emit a name that sorts wrong.
  EXPECT_FALSE(
      CompactionOutputName("seq-00000005g999999.bstf", true, &name).ok());

  // The invariant recovery depends on: each generation sorts after its
  // base and every earlier generation, and before the next base id.
  const std::string a = "seq-00000005.bstf";
  const std::string b = "seq-00000005g000001.bstf";
  const std::string c = "seq-00000005g000002.bstf";
  const std::string d = "seq-00000006.bstf";
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(c, d);
}

TEST_F(CompactionTest, MidListUnseqOutputKeepsPriorityAcrossReopen) {
  // Regression for the restart priority inversion: a tiered merge of a
  // window that ends mid-list produces an unsequence output, and files
  // flushed AFTER the window (still un-merged) must keep shadowing it
  // after a reopen, where priority is rebuilt from the name sort alone.
  EngineOptions opt = Options();
  opt.compaction_trigger_files = 4;
  opt.compaction_max_fanin = 4;
  {
    StorageEngine engine(opt);
    ASSERT_TRUE(engine.Open().ok());
    // One sequence generation, then five full overwrites; every rewrite
    // lands at or below the watermark, so each flush seals one
    // unsequence file: [seq-0, unseq-1, ..., unseq-5].
    for (int gen = 0; gen < 6; ++gen) {
      for (Timestamp t = 0; t < 100; ++t) {
        ASSERT_TRUE(
            engine.Write("s", t, static_cast<double>(gen * 1000 + t)).ok());
      }
      ASSERT_TRUE(engine.FlushAll().ok());
    }
    ASSERT_EQ(engine.sealed_file_count(), 6u);

    // One tiered step merges the OLDEST four files — generations 4 and 5
    // stay behind the merged window with higher query priority.
    bool performed = false;
    ASSERT_TRUE(engine.CompactStep(&performed).ok());
    ASSERT_TRUE(performed);
    ASSERT_EQ(engine.sealed_file_count(), 3u);
    std::vector<TvPairDouble> out;
    ASSERT_TRUE(engine.Query("s", 0, 100, &out).ok());
    ASSERT_EQ(out.size(), 100u);
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i].v, static_cast<double>(5000 + i)) << "t=" << i;
    }
  }
  // After reopen the answer must not change. (With a fresh-max-id output
  // name the merged file — holding generation-3 values — would sort
  // after unseq-4/unseq-5 and serve stale data.)
  StorageEngine reopened(opt);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.sealed_file_count(), 3u);
  std::vector<TvPairDouble> out;
  ASSERT_TRUE(reopened.Query("s", 0, 100, &out).ok());
  ASSERT_EQ(out.size(), 100u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].v, static_cast<double>(5000 + i)) << "t=" << i;
  }
}

TEST_F(CompactionTest, SchedulerBacksOffAfterPersistentFailure) {
  EngineOptions opt = Options();
  opt.compaction_trigger_files = 4;
  opt.compaction_max_fanin = 4;
  StorageEngine engine(opt);
  ASSERT_TRUE(engine.Open().ok());
  for (int gen = 0; gen < 4; ++gen) {
    for (Timestamp t = 0; t < 500; ++t) {
      ASSERT_TRUE(
          engine.Write("s", t + gen * 500, static_cast<double>(t)).ok());
    }
    ASSERT_TRUE(engine.FlushAll().ok());
  }
  const size_t files_before = engine.sealed_file_count();
  ASSERT_GE(files_before, 4u);

  // Corrupt one input so every planned merge fails the same way.
  std::string victim;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    if (e.path().extension() == ".bstf") {
      victim = e.path().string();
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  std::filesystem::resize_file(victim, 16);

  // Drive a standalone scheduler at a 5 ms tick for ~0.6 s. Without
  // backoff it would retry every tick (~120 failures); exponential
  // backoff fits only a handful of attempts into the window.
  CompactionScheduler scheduler(&engine, nullptr, 5);
  scheduler.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  scheduler.Stop();

  const EngineMetricsSnapshot snap = engine.GetMetricsSnapshot();
  EXPECT_GE(snap.compaction_failures, 2u);   // it kept retrying...
  EXPECT_LE(snap.compaction_failures, 20u);  // ...but exponentially spaced
  EXPECT_EQ(engine.sealed_file_count(), files_before);
}

}  // namespace
}  // namespace backsort
