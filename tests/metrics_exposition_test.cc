// Golden test for the Prometheus text exposition produced by
// MetricsRegistry and the engine, net and cluster exporters: pins the full
// document bytes, parses RenderPrometheus() output line by line, checks
// that each exporter emits exactly the families its metric table declares,
// checks the stage summaries against the engine's FlushTrace spans, and
// checks the tables against docs/METRICS.md in both directions.

#include <sys/types.h>
#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_metrics.h"
#include "common/metrics_registry.h"
#include "engine/storage_engine.h"
#include "net/net_metrics.h"

namespace backsort {
namespace {

// ---------------------------------------------------------------------------
// Exposition-format parser (strict enough to catch format regressions).

struct ParsedSample {
  std::string name;    // sample name (may carry _sum/_count suffix)
  std::string labels;  // raw text between the braces, "" when unlabeled
  double value = 0.0;
};

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_') {
    return false;
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

struct Exposition {
  std::map<std::string, std::string> types;  // family -> gauge|counter|summary
  std::set<std::string> helped;              // families with a HELP line
  std::vector<ParsedSample> samples;
  std::vector<std::string> trace_comments;
};

// Parses and structurally validates the text: every line is a HELP, TYPE,
// flush-trace comment, or well-formed sample whose family was declared
// (HELP then TYPE) earlier in the stream. Out-param (not a return value)
// because gtest ASSERTs need a void function.
void ParseExposition(const std::string& text, Exposition* out_ptr) {
  Exposition& out = *out_ptr;
  std::istringstream stream(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    SCOPED_TRACE("line " + std::to_string(line_no) + ": " + line);
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line[0] == '#') {
      if (line.rfind("# HELP ", 0) == 0) {
        const std::string rest = line.substr(7);
        const size_t sp = rest.find(' ');
        ASSERT_NE(sp, std::string::npos) << "HELP without text";
        const std::string family = rest.substr(0, sp);
        EXPECT_TRUE(ValidMetricName(family));
        EXPECT_EQ(out.helped.count(family), 0u) << "duplicate HELP";
        out.helped.insert(family);
      } else if (line.rfind("# TYPE ", 0) == 0) {
        const std::string rest = line.substr(7);
        const size_t sp = rest.find(' ');
        ASSERT_NE(sp, std::string::npos) << "TYPE without kind";
        const std::string family = rest.substr(0, sp);
        const std::string type = rest.substr(sp + 1);
        EXPECT_TRUE(ValidMetricName(family));
        EXPECT_EQ(out.helped.count(family), 1u) << "TYPE before HELP";
        EXPECT_EQ(out.types.count(family), 0u) << "duplicate TYPE";
        EXPECT_TRUE(type == "gauge" || type == "counter" || type == "summary")
            << "unexpected type " << type;
        out.types[family] = type;
      } else if (line.rfind("# flush-trace ", 0) == 0) {
        out.trace_comments.push_back(line);
      } else {
        ADD_FAILURE() << "unexpected comment line";
      }
      continue;
    }

    // Sample line: name[{labels}] value
    ParsedSample sample;
    size_t pos = line.find_first_of("{ ");
    ASSERT_NE(pos, std::string::npos) << "sample without value";
    sample.name = line.substr(0, pos);
    EXPECT_TRUE(ValidMetricName(sample.name));
    if (line[pos] == '{') {
      const size_t close = line.find('}', pos);
      ASSERT_NE(close, std::string::npos) << "unterminated label set";
      sample.labels = line.substr(pos + 1, close - pos - 1);
      EXPECT_FALSE(sample.labels.empty());
      pos = close + 1;
      ASSERT_LT(pos, line.size());
      ASSERT_EQ(line[pos], ' ');
    }
    const std::string value_text = line.substr(pos + 1);
    ASSERT_FALSE(value_text.empty());
    char* end = nullptr;
    sample.value = std::strtod(value_text.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "trailing junk after value: " << value_text;

    // The owning family (summaries add _sum/_count to the family name)
    // must have been declared above this line.
    std::string family = sample.name;
    for (const char* suffix : {"_sum", "_count"}) {
      const std::string s(suffix);
      if (family.size() > s.size() &&
          family.compare(family.size() - s.size(), s.size(), s) == 0) {
        const std::string stripped = family.substr(0, family.size() - s.size());
        if (out.types.count(stripped) != 0) family = stripped;
      }
    }
    EXPECT_EQ(out.types.count(family), 1u)
        << "sample before its TYPE declaration (family " << family << ")";
    out.samples.push_back(std::move(sample));
  }
}

// Value of the sample whose name and raw label text match exactly;
// NaN when absent.
double SampleValue(const Exposition& e, const std::string& name,
                   const std::string& labels) {
  for (const ParsedSample& s : e.samples) {
    if (s.name == name && s.labels == labels) return s.value;
  }
  return std::nan("");
}

// Family -> type map a metric table declares; fails on a duplicate row.
template <size_t N>
std::map<std::string, std::string> DeclaredTypes(
    const DeclaredFamily (&rows)[N]) {
  std::map<std::string, std::string> types;
  for (const DeclaredFamily& f : rows) {
    EXPECT_TRUE(types.emplace(f.name, MetricTypeName(f.type)).second)
        << "two rows declare " << f.name;
  }
  return types;
}

// Prometheus convention: counters end in _total, nothing else does.
void ExpectCounterNaming(const std::map<std::string, std::string>& types) {
  for (const auto& [family, type] : types) {
    const bool ends_total =
        family.size() > 6 &&
        family.compare(family.size() - 6, 6, "_total") == 0;
    EXPECT_EQ(type == "counter", ends_total) << family;
  }
}

std::string ReadMetricsDoc() {
  const std::string path =
      std::string(BACKSORT_SOURCE_DIR) + "/docs/METRICS.md";
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Every row of `rows` has a docs/METRICS.md table row — first cell
// `family` or `family{...}` — and every such row names the row's type in
// its second cell.
template <size_t N>
void ExpectRowsDocumented(const DeclaredFamily (&rows)[N]) {
  const std::string docs = ReadMetricsDoc();
  for (const DeclaredFamily& f : rows) {
    size_t documented = 0;
    std::istringstream lines(docs);
    std::string line;
    while (std::getline(lines, line)) {
      const std::string cell = std::string("| `") + f.name;
      if (line.rfind(cell + "`", 0) != 0 && line.rfind(cell + "{", 0) != 0) {
        continue;
      }
      ++documented;
      const size_t type_begin = line.find("| ", 2);
      const size_t type_end = line.find(" |", type_begin + 2);
      ASSERT_NE(type_end, std::string::npos) << line;
      EXPECT_EQ(line.substr(type_begin + 2, type_end - type_begin - 2),
                MetricTypeName(f.type))
          << line;
    }
    EXPECT_GT(documented, 0u)
        << f.name << " has no table row in docs/METRICS.md";
  }
}

// ---------------------------------------------------------------------------
// Shared engine run: a small multi-shard ingest with enough points to
// complete several flushes while staying within every shard's trace ring.

class MetricsExpositionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = (std::filesystem::temp_directory_path() /
            ("backsort_expo_test_" + std::to_string(::getpid())))
               .string();
    EngineOptions opt;
    opt.data_dir = dir_;
    opt.shard_count = 2;  // explicit: immune to BACKSORT_SHARDS
    opt.flush_workers = 1;
    opt.memtable_flush_threshold = 400;
    StorageEngine engine(opt);
    ASSERT_TRUE(engine.Open().ok());
    const std::vector<std::string> sensors = {"s0", "s1", "s2", "s3"};
    for (size_t i = 0; i < 600; ++i) {
      for (const std::string& sensor : sensors) {
        // Mild disorder: every 7th point arrives 3 ticks late.
        const Timestamp t = static_cast<Timestamp>(i % 7 == 0 && i > 3
                                                       ? i - 3
                                                       : i);
        ASSERT_TRUE(engine.Write(sensor, t, static_cast<double>(i)).ok());
      }
    }
    // Exercise the batched entries too: one single-sensor WriteBatch and
    // one multi-sensor WriteMulti (which fans out as one batched call per
    // shard). The timestamps sit past the per-point data so the query
    // assertions below are unaffected.
    std::vector<TvPairDouble> batch;
    for (size_t i = 0; i < 50; ++i) {
      batch.push_back({static_cast<Timestamp>(1000 + i),
                       static_cast<double>(i)});
    }
    size_t applied = 0;
    ASSERT_TRUE(engine.WriteBatch("s0", batch, &applied).ok());
    ASSERT_EQ(applied, batch.size());
    const SensorSpanDouble multi[] = {
        {&sensors[1], batch.data(), batch.size()},
        {&sensors[2], batch.data(), batch.size()},
    };
    applied = 0;
    const uint64_t calls_before = engine.GetMetricsSnapshot().batch_writes;
    ASSERT_TRUE(engine.WriteMulti(multi, 2, &applied).ok());
    ASSERT_EQ(applied, 2 * batch.size());
    multi_shard_calls_ =
        engine.GetMetricsSnapshot().batch_writes - calls_before;
    ASSERT_TRUE(engine.FlushAll().ok());
    // Exercise the read path so the query-stage histograms and cache
    // counters carry data: the repeated range hits the cached page
    // directories on the second pass.
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::string& sensor : sensors) {
        std::vector<TvPairDouble> points;
        ASSERT_TRUE(engine.Query(sensor, 100, 500, &points).ok());
        ASSERT_FALSE(points.empty());
        TvPairDouble last{};
        ASSERT_TRUE(engine.GetLatest(sensor, &last).ok());
        TsFileReader::RangeStats stats;
        ASSERT_TRUE(engine.AggregateFast(sensor, 100, 500, &stats).ok());
      }
    }
    // Full compaction so the compaction stage summaries and counters
    // carry data (several flushed files exist at this point). Runs after
    // the query passes, so no earlier assertion sees the merged layout.
    ASSERT_GT(engine.sealed_file_count(), 1u);
    ASSERT_TRUE(engine.Compact().ok());
    ASSERT_EQ(engine.sealed_file_count(), 1u);
    // The compacted layout is one totally ordered sequence file, so a
    // full-range aggregate now answers from footer statistics alone —
    // the exposition must show at least one tier-1 hit.
    {
      TsFileReader::RangeStats stats;
      bool used_fast = false;
      ASSERT_TRUE(
          engine.AggregateFast("s0", 0, 2000, &stats, &used_fast).ok());
      ASSERT_TRUE(used_fast);
      ASSERT_GT(stats.count, 0u);
    }
    snapshot_ = new EngineMetricsSnapshot(engine.GetMetricsSnapshot());
  }

  static void TearDownTestSuite() {
    delete snapshot_;
    snapshot_ = nullptr;
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  static const EngineMetricsSnapshot& snapshot() { return *snapshot_; }

  static std::string Render(bool include_traces) {
    MetricsRegistry registry;
    ExportEngineMetrics(snapshot(), {}, include_traces, &registry);
    return registry.RenderPrometheus();
  }

  static std::string dir_;
  static EngineMetricsSnapshot* snapshot_;
  /// Shard-level group commits the fixture's WriteMulti fanned out to.
  static uint64_t multi_shard_calls_;
};

std::string MetricsExpositionTest::dir_;
EngineMetricsSnapshot* MetricsExpositionTest::snapshot_ = nullptr;
uint64_t MetricsExpositionTest::multi_shard_calls_ = 0;

TEST_F(MetricsExpositionTest, GoldenFamilySet) {
  Exposition e;
  ParseExposition(Render(/*include_traces=*/false), &e);
  // ExportEngineMetrics emits exactly the families its table declares.
  EXPECT_EQ(e.types, DeclaredTypes(kEngineFamilies));
  ExpectCounterNaming(e.types);
}

TEST_F(MetricsExpositionTest, StageSummariesCarryRequiredQuantiles) {
  Exposition e;
  ParseExposition(Render(/*include_traces=*/false), &e);
  for (const char* stage : {"batch_apply", "queue_wait", "sort", "flush"}) {
    for (const char* q : {"0.5", "0.99"}) {
      const std::string labels =
          std::string("stage=\"") + stage + "\",quantile=\"" + q + "\"";
      const double v =
          SampleValue(e, "backsort_stage_duration_seconds", labels);
      EXPECT_FALSE(std::isnan(v)) << stage << " p" << q << " missing/NaN";
      EXPECT_GE(v, 0.0) << stage;
      EXPECT_LT(v, 3600.0) << stage;  // sanity: under an hour
    }
  }
  // The flush summary counts completed flushes.
  const double flush_count = SampleValue(
      e, "backsort_stage_duration_seconds_count", "stage=\"flush\"");
  EXPECT_GT(flush_count, 0.0);
  EXPECT_EQ(flush_count,
            static_cast<double>(snapshot().total_completed_flushes()));
  // One batch_apply record per Write call (a one-point group commit) plus
  // one per batch: the WriteBatch, and the WriteMulti once per shard it
  // touched.
  EXPECT_GE(multi_shard_calls_, 1u);
  EXPECT_LE(multi_shard_calls_, 2u);
  EXPECT_EQ(SampleValue(e, "backsort_stage_duration_seconds_count",
                        "stage=\"batch_apply\""),
            600.0 * 4 + 1.0 + static_cast<double>(multi_shard_calls_));
}

TEST_F(MetricsExpositionTest, BatchStageAndCountersCarryData) {
  Exposition e;
  ParseExposition(Render(/*include_traces=*/false), &e);
  // One batch_apply sample per successful shard-level batched call, so the
  // summary count and the batch-writes counter must agree exactly.
  const double batch_writes =
      SampleValue(e, "backsort_engine_batch_writes_total", "");
  EXPECT_EQ(batch_writes, static_cast<double>(snapshot().batch_writes));
  EXPECT_GT(batch_writes, 0.0);
  EXPECT_EQ(SampleValue(e, "backsort_stage_duration_seconds_count",
                        "stage=\"batch_apply\""),
            batch_writes);
  // Every ingested point is counted: 600×4 one-point Write calls, 50
  // points via WriteBatch and 2×50 via WriteMulti.
  EXPECT_EQ(SampleValue(e, "backsort_engine_batch_points_total", ""),
            600.0 * 4 + 150.0);
  for (const char* q : {"0.5", "0.99"}) {
    const std::string labels =
        std::string("stage=\"batch_apply\",quantile=\"") + q + "\"";
    const double v = SampleValue(e, "backsort_stage_duration_seconds", labels);
    EXPECT_FALSE(std::isnan(v)) << "batch_apply p" << q << " missing/NaN";
    EXPECT_GE(v, 0.0);
  }
  // One sort_job sample per sensor per flush, at every parallelism
  // setting — never fewer samples than completed flushes.
  const double sort_jobs = SampleValue(
      e, "backsort_stage_duration_seconds_count", "stage=\"sort_job\"");
  EXPECT_GE(sort_jobs,
            static_cast<double>(snapshot().total_completed_flushes()));
}

TEST_F(MetricsExpositionTest, QueryStagesAndCacheCountersCarryData) {
  Exposition e;
  ParseExposition(Render(/*include_traces=*/false), &e);
  for (const char* stage : {"snapshot", "prune", "read", "merge"}) {
    for (const char* q : {"0.5", "0.99"}) {
      const std::string labels =
          std::string("stage=\"") + stage + "\",quantile=\"" + q + "\"";
      const double v =
          SampleValue(e, "backsort_query_stage_duration_seconds", labels);
      EXPECT_FALSE(std::isnan(v)) << stage << " p" << q << " missing/NaN";
      EXPECT_GE(v, 0.0) << stage;
    }
    // Every full query passes through every stage.
    const double count =
        SampleValue(e, "backsort_query_stage_duration_seconds_count",
                    std::string("stage=\"") + stage + "\"");
    EXPECT_GT(count, 0.0) << stage;
  }
  EXPECT_GT(SampleValue(e, "backsort_queries_total", ""), 0.0);
  // The query passes read and decoded sealed pages (the amplification
  // counters), and the exposition carries the snapshot's exact totals.
  const double pages =
      SampleValue(e, "backsort_engine_sealed_pages_decoded_total", "");
  const double bytes =
      SampleValue(e, "backsort_engine_sealed_bytes_read_total", "");
  EXPECT_GT(pages, 0.0);
  EXPECT_GT(bytes, pages);
  EXPECT_EQ(pages, static_cast<double>(snapshot().sealed_pages_decoded));
  EXPECT_EQ(bytes, static_cast<double>(snapshot().sealed_bytes_read));
  // The second query pass over the same range must hit the cached page
  // directories.
  EXPECT_GT(SampleValue(e, "backsort_chunk_cache_hits_total", ""), 0.0);
  EXPECT_GT(SampleValue(e, "backsort_chunk_cache_capacity_bytes", ""), 0.0);
  EXPECT_GT(SampleValue(e, "backsort_chunk_cache_entries", ""), 0.0);
}

TEST_F(MetricsExpositionTest, AggregationStagesAndCountersCarryData) {
  Exposition e;
  ParseExposition(Render(/*include_traces=*/false), &e);
  // 2 query passes × 4 sensors plus the post-compaction tier-1 probe.
  const double requests = SampleValue(e, "backsort_agg_requests_total", "");
  EXPECT_EQ(requests, 9.0);
  EXPECT_EQ(requests, static_cast<double>(snapshot().agg_requests));
  // The mildly disordered fixture's late points overlap some chunks of
  // the pre-compaction aggregates (merged page by page: misses); other
  // chunks and the post-compaction probe answer from footer statistics
  // (hits). Both sides must show up.
  EXPECT_GT(SampleValue(e, "backsort_agg_stats_hits_total", ""), 0.0);
  EXPECT_GT(SampleValue(e, "backsort_agg_stats_misses_total", ""), 0.0);
  for (const char* stage : {"plan", "stats", "decode", "merge"}) {
    for (const char* q : {"0.5", "0.99"}) {
      const std::string labels =
          std::string("stage=\"") + stage + "\",quantile=\"" + q + "\"";
      const double v =
          SampleValue(e, "backsort_agg_stage_duration_seconds", labels);
      EXPECT_FALSE(std::isnan(v)) << stage << " p" << q << " missing/NaN";
      EXPECT_GE(v, 0.0) << stage;
    }
    // Every non-degenerate AggregateFast call passes through all four
    // stages (stats and decode possibly no-ops).
    EXPECT_EQ(SampleValue(e, "backsort_agg_stage_duration_seconds_count",
                          std::string("stage=\"") + stage + "\""),
              requests)
        << stage;
  }
}

TEST_F(MetricsExpositionTest, CompactionStagesAndCountersCarryData) {
  Exposition e;
  ParseExposition(Render(/*include_traces=*/false), &e);
  // The fixture ran one full compaction over the flushed files.
  const double jobs =
      SampleValue(e, "backsort_engine_compaction_jobs_total", "");
  EXPECT_GE(jobs, 1.0);
  EXPECT_EQ(jobs, static_cast<double>(snapshot().compaction_jobs));
  EXPECT_EQ(SampleValue(e, "backsort_engine_compaction_failures_total", ""),
            0.0);
  EXPECT_GE(SampleValue(e, "backsort_engine_compaction_input_files_total", ""),
            2.0);
  EXPECT_GT(SampleValue(e, "backsort_engine_compaction_output_bytes_total", ""),
            0.0);
  // One merge + publish histogram record per completed job; planning runs
  // at least once more (the final round that found nothing).
  EXPECT_EQ(SampleValue(e, "backsort_compaction_stage_duration_seconds_count",
                        "stage=\"merge\""),
            jobs);
  EXPECT_EQ(SampleValue(e, "backsort_compaction_stage_duration_seconds_count",
                        "stage=\"publish\""),
            jobs);
  EXPECT_GE(SampleValue(e, "backsort_compaction_stage_duration_seconds_count",
                        "stage=\"plan\""),
            jobs);
  for (const char* stage : {"plan", "merge", "publish"}) {
    const double p99 =
        SampleValue(e, "backsort_compaction_stage_duration_seconds",
                    std::string("stage=\"") + stage + "\",quantile=\"0.99\"");
    EXPECT_FALSE(std::isnan(p99)) << stage;
    EXPECT_GE(p99, 0.0) << stage;
  }
}

TEST_F(MetricsExpositionTest, TracesAgreeWithStageHistograms) {
  Exposition e;
  ParseExposition(Render(/*include_traces=*/true), &e);
  size_t trace_count = 0;
  uint64_t trace_sort_ns = 0;
  for (const ShardMetricsSnapshot& shard : snapshot().shards) {
    for (const FlushTrace& t : shard.recent_traces) {
      ++trace_count;
      trace_sort_ns += static_cast<uint64_t>(t.sort_ns);
      // Span sanity: the pipeline is ordered and its measured
      // sub-intervals are disjoint pieces of [dequeue, publish].
      EXPECT_LE(t.seal_ns, t.dequeue_ns);
      EXPECT_LE(t.dequeue_ns, t.publish_ns);
      EXPECT_GE(t.sort_ns, 0);
      EXPECT_GE(t.encode_ns, 0);
      EXPECT_GE(t.fsync_ns, 0);
      EXPECT_LE(t.sort_ns + t.encode_ns + t.fsync_ns, t.pipeline_ns());
      EXPECT_GT(t.points, 0u);
    }
  }
  // Every completed flush ran within the ring capacity here, so traces,
  // comments, and the flush histogram all agree on the count.
  EXPECT_EQ(trace_count, snapshot().total_completed_flushes());
  EXPECT_EQ(e.trace_comments.size(), trace_count);
  EXPECT_EQ(snapshot().stages.flush.count, trace_count);
  // The sort histogram records exactly the traces' sort spans.
  EXPECT_EQ(snapshot().stages.sort.sum, trace_sort_ns);
  const double rendered_sort_sum = SampleValue(
      e, "backsort_stage_duration_seconds_sum", "stage=\"sort\"");
  EXPECT_NEAR(rendered_sort_sum, static_cast<double>(trace_sort_ns) * 1e-9,
              static_cast<double>(trace_sort_ns) * 1e-9 * 1e-6 + 1e-12);
}

TEST_F(MetricsExpositionTest, DocsListEveryExportedFamily) {
  ExpectRowsDocumented(kEngineFamilies);
  EXPECT_NE(ReadMetricsDoc().find("flush-trace"), std::string::npos)
      << "flush-trace comment format not documented";
}

// The other direction: every `backsort_*` family docs/METRICS.md names
// (a summary's `_sum`/`_count` samples included) is declared by a row of
// the engine, net or cluster table. `backsort_net_*`-style prefixes are
// skipped.
TEST(MetricsDocs, EveryDocumentedFamilyHasARow) {
  std::map<std::string, std::string> declared = DeclaredTypes(kEngineFamilies);
  declared.merge(DeclaredTypes(kNetFamilies));
  declared.merge(DeclaredTypes(kClusterFamilies));
  const std::string docs = ReadMetricsDoc();
  size_t named = 0;
  for (size_t pos = docs.find("backsort_"); pos != std::string::npos;
       pos = docs.find("backsort_", pos + 1)) {
    size_t end = pos;
    while (end < docs.size() &&
           (std::islower(static_cast<unsigned char>(docs[end])) ||
            std::isdigit(static_cast<unsigned char>(docs[end])) ||
            docs[end] == '_')) {
      ++end;
    }
    if (end < docs.size() && docs[end] == '*') continue;
    std::string family = docs.substr(pos, end - pos);
    for (const std::string suffix : {"_sum", "_count"}) {
      if (family.size() > suffix.size() &&
          family.compare(family.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
        const std::string base = family.substr(0, family.size() - suffix.size());
        auto it = declared.find(base);
        if (it != declared.end() && it->second == "summary") family = base;
      }
    }
    ++named;
    EXPECT_EQ(declared.count(family), 1u)
        << family << " is named in docs/METRICS.md but no table declares it";
  }
  EXPECT_GE(named, declared.size());
}

// ---------------------------------------------------------------------------
// Network metrics (ExportNetMetrics) — same discipline as the engine
// families: the declared set, the counter-naming convention, carried
// values and docs/METRICS.md coverage.

NetMetricsSnapshot SyntheticNetSnapshot() {
  NetMetrics metrics;
  metrics.connections_total = 5;
  metrics.active_connections = 2;
  metrics.bytes_in = 4'096;
  metrics.bytes_out = 1'024;
  metrics.overload_rejections = 3;
  metrics.protocol_errors = 1;
  metrics.event_loop_wakeups = 42;
  metrics.read_pauses = 2;
  metrics.requests_on_loop = 6;
  metrics.event_loop_events.Record(7);
  metrics.pipeline_depth.Record(3);
  metrics.writev_frames.Record(5);
  for (size_t i = 0; i < kNumMsgTypes; ++i) {
    metrics.requests_total[i] = 10 * (i + 1);
    metrics.request_duration[i].Record(static_cast<int64_t>(1'000 * (i + 1)));
  }
  NetMetricsSnapshot snap = metrics.Snapshot();
  snap.inflight_requests = 4;
  snap.inflight_bytes = 512;
  return snap;
}

std::string RenderNet() {
  MetricsRegistry registry;
  ExportNetMetrics(SyntheticNetSnapshot(), {}, &registry);
  return registry.RenderPrometheus();
}

TEST(NetMetricsExposition, GoldenFamilySet) {
  Exposition e;
  ParseExposition(RenderNet(), &e);
  EXPECT_EQ(e.types, DeclaredTypes(kNetFamilies));
  ExpectCounterNaming(e.types);
}

TEST(NetMetricsExposition, PerTypeSamplesCarryValues) {
  Exposition e;
  ParseExposition(RenderNet(), &e);
  const char* type_names[] = {"ping",           "write_batch",
                              "query",          "get_latest",
                              "aggregate_fast", "metrics_snapshot",
                              "replicate_batch", "replication_ack"};
  static_assert(std::size(type_names) == kNumMsgTypes,
                "new MsgType needs a name here");
  for (size_t i = 0; i < kNumMsgTypes; ++i) {
    const std::string label = std::string("type=\"") + type_names[i] + "\"";
    EXPECT_EQ(SampleValue(e, "backsort_net_requests_total", label),
              10.0 * static_cast<double>(i + 1))
        << type_names[i];
    EXPECT_EQ(SampleValue(e, "backsort_net_request_duration_seconds_count",
                          label),
              1.0)
        << type_names[i];
    // One recorded latency of (i+1) microseconds, rendered in seconds.
    const double max = SampleValue(e, "backsort_net_request_duration_seconds",
                                   label + ",quantile=\"1\"");
    EXPECT_NEAR(max, 1e-6 * static_cast<double>(i + 1), 1e-7)
        << type_names[i];
  }
  EXPECT_EQ(SampleValue(e, "backsort_net_connections_total", ""), 5.0);
  EXPECT_EQ(SampleValue(e, "backsort_net_inflight_requests", ""), 4.0);
  EXPECT_EQ(SampleValue(e, "backsort_net_inflight_bytes", ""), 512.0);
  // Event-loop and pipelining families: counters verbatim, depth
  // summaries with unit scale (a depth of 3 renders as 3, not seconds).
  EXPECT_EQ(SampleValue(e, "backsort_net_event_loop_wakeups_total", ""), 42.0);
  EXPECT_EQ(SampleValue(e, "backsort_net_read_pauses_total", ""), 2.0);
  EXPECT_EQ(SampleValue(e, "backsort_net_requests_on_loop_total", ""), 6.0);
  EXPECT_EQ(SampleValue(e, "backsort_net_event_loop_events",
                        "quantile=\"1\""),
            7.0);
  EXPECT_EQ(SampleValue(e, "backsort_net_pipeline_depth", "quantile=\"1\""),
            3.0);
  EXPECT_EQ(SampleValue(e, "backsort_net_writev_frames", "quantile=\"1\""),
            5.0);
}

TEST(NetMetricsExposition, DocsListEveryExportedFamily) {
  ExpectRowsDocumented(kNetFamilies);
}

// ---------------------------------------------------------------------------
// Cluster replication metrics (ExportClusterMetrics) — same discipline:
// the declared set, the counter-naming convention, carried values and
// docs/METRICS.md coverage.

std::string RenderCluster() {
  ClusterMetrics metrics;
  metrics.ship_chunks = 4;
  metrics.ship_records = 4'000;
  metrics.ship_bytes = 65'536;
  metrics.acked_records = 3'900;
  metrics.ship_errors = 1;
  metrics.reconnects = 2;
  metrics.backlog_bytes = 1'024;
  metrics.ship_rtt_ns.Record(250'000);
  MetricsRegistry registry;
  ExportClusterMetrics(metrics.Snapshot(), {}, &registry);
  return registry.RenderPrometheus();
}

TEST(ClusterMetricsExposition, GoldenFamilySet) {
  Exposition e;
  ParseExposition(RenderCluster(), &e);
  EXPECT_EQ(e.types, DeclaredTypes(kClusterFamilies));
  ExpectCounterNaming(e.types);
}

TEST(ClusterMetricsExposition, ValuesCarryThrough) {
  Exposition e;
  ParseExposition(RenderCluster(), &e);
  EXPECT_EQ(SampleValue(e, "backsort_cluster_ship_chunks_total", ""), 4.0);
  EXPECT_EQ(SampleValue(e, "backsort_cluster_ship_records_total", ""), 4000.0);
  EXPECT_EQ(SampleValue(e, "backsort_cluster_ship_bytes_total", ""), 65536.0);
  EXPECT_EQ(SampleValue(e, "backsort_cluster_acked_records_total", ""),
            3900.0);
  EXPECT_EQ(SampleValue(e, "backsort_cluster_ship_errors_total", ""), 1.0);
  EXPECT_EQ(SampleValue(e, "backsort_cluster_reconnects_total", ""), 2.0);
  EXPECT_EQ(SampleValue(e, "backsort_cluster_backlog_bytes", ""), 1024.0);
  // One 250µs round-trip, rendered in seconds; the histogram is log-scale
  // so the quantile is bucket-approximate.
  EXPECT_NEAR(SampleValue(e, "backsort_cluster_ship_rtt_seconds",
                          "quantile=\"1\""),
              2.5e-4, 2.5e-5);
  EXPECT_EQ(SampleValue(e, "backsort_cluster_ship_rtt_seconds_count", ""),
            1.0);
}

TEST(ClusterMetricsExposition, DocsListEveryExportedFamily) {
  ExpectRowsDocumented(kClusterFamilies);
}

TEST_F(MetricsExpositionTest, MergedEngineAndNetExpositionParses) {
  // The server's MetricsSnapshot RPC renders both exports into one
  // registry; the combined document must still be structurally valid and
  // contain both family groups.
  MetricsRegistry registry;
  ExportEngineMetrics(snapshot(), {}, /*include_traces=*/false, &registry);
  ExportNetMetrics(SyntheticNetSnapshot(), {}, &registry);
  const std::string text = registry.RenderPrometheus();
  Exposition e;
  ParseExposition(text, &e);
  EXPECT_EQ(e.types.count("backsort_flushes_total"), 1u);
  EXPECT_EQ(e.types.count("backsort_net_requests_total"), 1u);
}

// ---------------------------------------------------------------------------
// Byte oracle: deterministic, hand-built engine, net and cluster snapshots
// rendered through all three exporters into one registry. Pins the full
// document — family order, HELP, TYPE, label order and escaping, value
// formatting and the `# flush-trace` comments — as length + FNV-1a digest.

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

HistogramSnapshot RecordedHistogram(std::initializer_list<uint64_t> values) {
  LatencyHistogram h;
  for (uint64_t v : values) h.Record(v);
  return h.Snapshot();
}

EngineMetricsSnapshot HandBuiltEngineSnapshot() {
  EngineMetricsSnapshot snap;
  for (size_t id = 0; id < 2; ++id) {
    ShardMetricsSnapshot shard;
    shard.shard_id = id;
    shard.queued_flushes = 1 + id;
    shard.flushing_tables = 2 + id;
    shard.completed_flushes = 3 + id;
    shard.working_points = 400 + id;
    shard.working_bytes = 6'400 + id;
    shard.sealed_files = 5 + id;
    shard.flush.flush_ms.Add(1.25 + static_cast<double>(id));
    shard.flush.flush_ms.Add(2.5);
    shard.flush.sort_ms.Add(0.125 * static_cast<double>(id + 1));
    snap.shards.push_back(shard);
  }
  FlushTrace trace;
  trace.shard_id = 1;
  trace.seq = 7;
  trace.sequence = true;
  trace.points = 200;
  trace.seal_ns = 812'250'000;
  trace.dequeue_ns = 812'363'000;
  trace.publish_ns = 813'101'000;
  trace.sort_ns = 55'000;
  trace.encode_ns = 410'000;
  trace.fsync_ns = 92'000;
  snap.shards[1].recent_traces.push_back(trace);
  snap.sealed_files = 9;
  // One non-empty histogram per stage set; every other stage stays empty
  // and renders NaN quantiles.
  snap.stages.sort = RecordedHistogram({1'000, 2'500, 40'000});
  snap.query_stages.read = RecordedHistogram({7'000});
  snap.agg_stages.decode = RecordedHistogram({3, 900, 123'456'789});
  snap.compaction_stages.merge = RecordedHistogram({5'000'000});
  snap.queries = 11;
  snap.query_files_pruned = 12;
  snap.query_files_opened = 13;
  snap.sealed_bytes_read = 14;
  snap.sealed_pages_decoded = 15;
  snap.agg_requests = 16;
  snap.agg_stats_hits = 17;
  snap.agg_stats_misses = 18;
  snap.cache.hits = 19;
  snap.cache.misses = 20;
  snap.cache.evictions = 21;
  snap.cache.footer_hits = 22;
  snap.cache.footer_misses = 23;
  snap.cache.bytes = 24;
  snap.cache.entries = 25;
  snap.cache.capacity_bytes = 26;
  snap.batch_writes = 27;
  snap.batch_points = 28;
  snap.compaction_jobs = 29;
  snap.compaction_failures = 30;
  snap.compaction_input_files = 31;
  snap.compaction_output_bytes = 32;
  snap.compaction_pages_copied = 33;
  snap.compaction_pages_merged = 34;
  snap.agg_pages_folded = 35;
  return snap;
}

NetMetricsSnapshot HandBuiltNetSnapshot() {
  NetMetricsSnapshot snap;
  snap.connections_total = 41;
  snap.active_connections = 42;
  snap.bytes_in = 43;
  snap.bytes_out = 44;
  snap.overload_rejections = 45;
  snap.protocol_errors = 46;
  snap.inflight_requests = 47;
  snap.inflight_bytes = 48;
  snap.event_loop_wakeups = 49;
  snap.read_pauses = 50;
  snap.requests_on_loop = 51;
  snap.event_loop_events = RecordedHistogram({1, 2, 3});
  snap.writev_frames = RecordedHistogram({4});
  for (size_t i = 0; i < kNumMsgTypes; ++i) {
    snap.requests_total[i] = 100 + i;
  }
  snap.request_duration[2] = RecordedHistogram({250'000, 1'000'000});
  return snap;
}

ClusterMetricsSnapshot HandBuiltClusterSnapshot() {
  ClusterMetricsSnapshot snap;
  snap.ship_chunks = 61;
  snap.ship_records = 62;
  snap.ship_bytes = 63;
  snap.acked_records = 64;
  snap.ship_errors = 65;
  snap.reconnects = 66;
  snap.backlog_bytes = 67;
  snap.ship_rtt_ns = RecordedHistogram({300'000});
  return snap;
}

TEST_F(MetricsExpositionTest, ExpositionBytesMatchGolden) {
  const MetricsRegistry::Labels base = {{"run", "a\"b\\c\nd"}};
  MetricsRegistry registry;
  ExportEngineMetrics(HandBuiltEngineSnapshot(), base,
                      /*include_traces=*/true, &registry);
  ExportNetMetrics(HandBuiltNetSnapshot(), base, &registry);
  ExportClusterMetrics(HandBuiltClusterSnapshot(), base, &registry);
  const std::string text = registry.RenderPrometheus();
  EXPECT_EQ(text.size(), 29858u);
  EXPECT_EQ(Fnv1a(text), 5109815483356375209ull) << text;
}

TEST(MetricsRegistryFormat, LabelEscapingAndEmptySummaries) {
  MetricsRegistry registry;
  registry.Add({"demo_gauge", MetricType::kGauge, "g", 1},
               {{"path", "a\"b\\c\nd"}}, 1.0);
  LatencyHistogram empty;
  registry.Add({"demo_seconds", MetricType::kSummary, "s", 1e-9}, {},
               empty.Snapshot());
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("demo_gauge{path=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos)
      << text;
  // Empty summaries render NaN quantiles but a real zero count.
  EXPECT_NE(text.find("demo_seconds{quantile=\"0.5\"} NaN"),
            std::string::npos);
  EXPECT_NE(text.find("demo_seconds_count 0"), std::string::npos);
  Exposition e;
  ParseExposition(text, &e);
  EXPECT_EQ(e.types.at("demo_gauge"), "gauge");
  EXPECT_EQ(e.types.at("demo_seconds"), "summary");
}

}  // namespace
}  // namespace backsort
