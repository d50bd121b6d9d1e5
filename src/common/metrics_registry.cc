#include "common/metrics_registry.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

namespace backsort {

namespace {

/// Prometheus float rendering: enough digits to round-trip, special
/// spellings for NaN/Inf.
std::string FormatValue(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string EscapeHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

MetricsRegistry::Family* MetricsRegistry::FamilyFor(const std::string& name,
                                                    const std::string& help,
                                                    const std::string& type) {
  auto it = family_index_.find(name);
  if (it != family_index_.end()) return &families_[it->second];
  family_index_[name] = families_.size();
  families_.push_back(Family{name, help, type, {}});
  return &families_.back();
}

void MetricsRegistry::AddSample(Family* family, const std::string& sample_name,
                                const Labels& labels, double value) {
  std::string line = sample_name;
  if (!labels.empty()) {
    line += '{';
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) line += ',';
      first = false;
      line += k;
      line += "=\"";
      line += EscapeLabelValue(v);
      line += '"';
    }
    line += '}';
  }
  line += ' ';
  line += FormatValue(value);
  family->lines.push_back(std::move(line));
}

void MetricsRegistry::Gauge(const std::string& name, const std::string& help,
                            const Labels& labels, double value) {
  AddSample(FamilyFor(name, help, "gauge"), name, labels, value);
}

void MetricsRegistry::Counter(const std::string& name, const std::string& help,
                              const Labels& labels, double value) {
  AddSample(FamilyFor(name, help, "counter"), name, labels, value);
}

void MetricsRegistry::Summary(const std::string& name, const std::string& help,
                              const Labels& labels,
                              const HistogramSnapshot& snapshot, double scale) {
  static constexpr double kQuantiles[] = {0.5, 0.9, 0.99, 1.0};
  Family* family = FamilyFor(name, help, "summary");
  for (double q : kQuantiles) {
    Labels with_quantile = labels;
    with_quantile.emplace_back("quantile", FormatValue(q));
    const double v = snapshot.count == 0
                         ? std::nan("")
                         : snapshot.ValueAtQuantile(q) * scale;
    AddSample(family, name, with_quantile, v);
  }
  AddSample(family, name + "_sum", labels,
            static_cast<double>(snapshot.sum) * scale);
  AddSample(family, name + "_count", labels,
            static_cast<double>(snapshot.count));
}

void MetricsRegistry::Comment(const std::string& text) {
  comments_.push_back("# " + text);
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::ostringstream out;
  for (const Family& f : families_) {
    out << "# HELP " << f.name << ' ' << EscapeHelp(f.help) << '\n';
    out << "# TYPE " << f.name << ' ' << f.type << '\n';
    for (const std::string& line : f.lines) out << line << '\n';
  }
  for (const std::string& c : comments_) out << c << '\n';
  return out.str();
}

Status MetricsRegistry::WriteFile(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open metrics file for write: " + tmp);
  }
  const std::string text = RenderPrometheus();
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != text.size() || !close_ok) {
    return Status::IOError("short write to metrics file: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("cannot publish metrics file " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

void ExportEngineMetrics(const EngineMetricsSnapshot& snapshot,
                         const MetricsRegistry::Labels& base_labels,
                         bool include_traces, MetricsRegistry* registry) {
  constexpr double kNsToSec = 1e-9;
  constexpr double kNsToMs = 1e-6;
  constexpr double kMsToSec = 1e-3;

  const struct {
    const char* stage;
    const HistogramSnapshot& hist;
  } stages[] = {
      {"batch_apply", snapshot.stages.batch_apply},
      {"queue_wait", snapshot.stages.queue_wait},
      {"sort", snapshot.stages.sort},
      {"sort_job", snapshot.stages.sort_job},
      {"encode", snapshot.stages.encode},
      {"seal", snapshot.stages.seal},
      {"flush", snapshot.stages.flush},
  };
  for (const auto& s : stages) {
    MetricsRegistry::Labels labels = base_labels;
    labels.emplace_back("stage", s.stage);
    registry->Summary(
        "backsort_stage_duration_seconds",
        "Write-path stage latency in seconds (stages: batch_apply, "
        "queue_wait, sort, sort_job, encode, seal, flush); quantile=\"1\" is "
        "the observed max.",
        labels, s.hist, kNsToSec);
  }

  const struct {
    const char* stage;
    const HistogramSnapshot& hist;
  } query_stages[] = {
      {"snapshot", snapshot.query_stages.snapshot},
      {"prune", snapshot.query_stages.prune},
      {"read", snapshot.query_stages.read},
      {"merge", snapshot.query_stages.merge},
  };
  for (const auto& s : query_stages) {
    MetricsRegistry::Labels labels = base_labels;
    labels.emplace_back("stage", s.stage);
    registry->Summary(
        "backsort_query_stage_duration_seconds",
        "Read-path stage latency in seconds (stages: snapshot, prune, read, "
        "merge; only snapshot holds the shard lock); quantile=\"1\" is the "
        "observed max.",
        labels, s.hist, kNsToSec);
  }

  const struct {
    const char* stage;
    const HistogramSnapshot& hist;
  } agg_stages[] = {
      {"plan", snapshot.agg_stages.plan},
      {"stats", snapshot.agg_stages.stats},
      {"decode", snapshot.agg_stages.decode},
      {"merge", snapshot.agg_stages.merge},
  };
  for (const auto& s : agg_stages) {
    MetricsRegistry::Labels labels = base_labels;
    labels.emplace_back("stage", s.stage);
    registry->Summary(
        "backsort_agg_stage_duration_seconds",
        "Aggregation-path stage latency in seconds (stages: plan, stats, "
        "decode, merge; only plan holds the shard lock); quantile=\"1\" is "
        "the observed max.",
        labels, s.hist, kNsToSec);
  }

  registry->Counter("backsort_agg_requests_total",
                    "AggregateFast calls served since the engine opened.",
                    base_labels, static_cast<double>(snapshot.agg_requests));
  registry->Counter(
      "backsort_agg_stats_hits_total",
      "Chunks answered from footer statistics alone (tier 1, no decode).",
      base_labels, static_cast<double>(snapshot.agg_stats_hits));
  registry->Counter(
      "backsort_agg_stats_misses_total",
      "Aggregation sources that needed a decoding tier: partially covered "
      "or stat-less chunks (tier 2) plus calls routed through the exact "
      "merge fallback (tier 3).",
      base_labels, static_cast<double>(snapshot.agg_stats_misses));

  const struct {
    const char* stage;
    const HistogramSnapshot& hist;
  } compaction_stages[] = {
      {"plan", snapshot.compaction_stages.plan},
      {"merge", snapshot.compaction_stages.merge},
      {"publish", snapshot.compaction_stages.publish},
  };
  for (const auto& s : compaction_stages) {
    MetricsRegistry::Labels labels = base_labels;
    labels.emplace_back("stage", s.stage);
    registry->Summary(
        "backsort_compaction_stage_duration_seconds",
        "Compaction stage latency in seconds (stages: plan, merge, publish; "
        "only publish holds shard locks); quantile=\"1\" is the observed max.",
        labels, s.hist, kNsToSec);
  }

  registry->Counter(
      "backsort_engine_compaction_jobs_total",
      "Compaction merges completed (one output file swapped in each).",
      base_labels, static_cast<double>(snapshot.compaction_jobs));
  registry->Counter(
      "backsort_engine_compaction_failures_total",
      "Compaction merges that failed and left the registry unchanged.",
      base_labels, static_cast<double>(snapshot.compaction_failures));
  registry->Counter(
      "backsort_engine_compaction_input_files_total",
      "Sealed files consumed (merged away) by completed compactions.",
      base_labels, static_cast<double>(snapshot.compaction_input_files));
  registry->Counter(
      "backsort_engine_compaction_output_bytes_total",
      "Bytes written into compaction output files (post-merge sizes).",
      base_labels, static_cast<double>(snapshot.compaction_output_bytes));

  registry->Counter(
      "backsort_engine_batch_writes_total",
      "Batched write calls applied via the group-commit ingest path.",
      base_labels, static_cast<double>(snapshot.batch_writes));
  registry->Counter("backsort_engine_batch_points_total",
                    "Points ingested via the batched write path.",
                    base_labels, static_cast<double>(snapshot.batch_points));

  registry->Counter("backsort_queries_total",
                    "Range queries served since the engine opened.",
                    base_labels, static_cast<double>(snapshot.queries));
  registry->Counter(
      "backsort_query_files_pruned_total",
      "Sealed files skipped by footer time-range pruning, all queries.",
      base_labels, static_cast<double>(snapshot.query_files_pruned));
  registry->Counter(
      "backsort_query_files_opened_total",
      "Sealed files that contributed a run to a query (disk or cache), all "
      "queries.",
      base_labels, static_cast<double>(snapshot.query_files_opened));
  registry->Counter(
      "backsort_engine_sealed_bytes_read_total",
      "Bytes read from sealed chunks by queries and aggregations: spans of "
      "overlapping pages plus page-directory derivations.",
      base_labels, static_cast<double>(snapshot.sealed_bytes_read));
  registry->Counter(
      "backsort_engine_sealed_pages_decoded_total",
      "Sealed pages decoded by queries and aggregations.", base_labels,
      static_cast<double>(snapshot.sealed_pages_decoded));

  registry->Counter("backsort_chunk_cache_hits_total",
                    "Page-directory lookups served from the chunk cache.",
                    base_labels, static_cast<double>(snapshot.cache.hits));
  registry->Counter("backsort_chunk_cache_misses_total",
                    "Page-directory lookups that read the chunk from disk.",
                    base_labels,
                    static_cast<double>(snapshot.cache.misses));
  registry->Counter(
      "backsort_chunk_cache_evictions_total",
      "Chunk-cache entries evicted to stay under capacity.", base_labels,
      static_cast<double>(snapshot.cache.evictions));
  registry->Counter(
      "backsort_chunk_cache_footer_hits_total",
      "Footer/index lookups served from the chunk cache.", base_labels,
      static_cast<double>(snapshot.cache.footer_hits));
  registry->Counter("backsort_chunk_cache_footer_misses_total",
                    "Footer/index lookups that read the file.", base_labels,
                    static_cast<double>(snapshot.cache.footer_misses));
  registry->Gauge("backsort_chunk_cache_bytes",
                  "Resident chunk-cache bytes (page directories + footers).",
                  base_labels, static_cast<double>(snapshot.cache.bytes));
  registry->Gauge("backsort_chunk_cache_entries",
                  "Resident chunk-cache entries (page directories + footers).",
                  base_labels, static_cast<double>(snapshot.cache.entries));
  registry->Gauge(
      "backsort_chunk_cache_capacity_bytes",
      "Configured chunk-cache capacity in bytes (0 = cache disabled).",
      base_labels, static_cast<double>(snapshot.cache.capacity_bytes));

  registry->Gauge("backsort_shard_count", "Engine shards.", base_labels,
                  static_cast<double>(snapshot.shards.size()));
  registry->Gauge("backsort_sealed_files",
                  "Distinct sealed TsFiles across the engine.", base_labels,
                  static_cast<double>(snapshot.sealed_files));
  registry->Gauge("backsort_working_points",
                  "Points buffered in working memtables, all shards.",
                  base_labels,
                  static_cast<double>(snapshot.total_working_points()));
  registry->Gauge("backsort_working_bytes",
                  "Approximate heap bytes of working memtables, all shards.",
                  base_labels,
                  static_cast<double>(snapshot.total_working_bytes()));
  registry->Gauge("backsort_queued_flushes",
                  "Sealed memtables waiting in flush queues, all shards.",
                  base_labels,
                  static_cast<double>(snapshot.total_queued_flushes()));
  registry->Counter("backsort_flushes_total",
                    "Flushes completed since the engine opened.", base_labels,
                    static_cast<double>(snapshot.total_completed_flushes()));

  for (const ShardMetricsSnapshot& shard : snapshot.shards) {
    MetricsRegistry::Labels labels = base_labels;
    labels.emplace_back("shard", std::to_string(shard.shard_id));
    registry->Gauge("backsort_shard_working_points",
                    "Points buffered in one shard's working memtables.",
                    labels, static_cast<double>(shard.working_points));
    registry->Gauge("backsort_shard_working_bytes",
                    "Approximate heap bytes of one shard's working memtables.",
                    labels, static_cast<double>(shard.working_bytes));
    registry->Gauge("backsort_shard_queued_flushes",
                    "Sealed memtables waiting in one shard's flush queue.",
                    labels, static_cast<double>(shard.queued_flushes));
    registry->Gauge(
        "backsort_shard_flushing_tables",
        "Sealed memtables of one shard not yet fully on disk.", labels,
        static_cast<double>(shard.flushing_tables));
    registry->Gauge("backsort_shard_sealed_files",
                    "Sealed TsFiles one shard consults at query time.", labels,
                    static_cast<double>(shard.sealed_files));
    registry->Counter("backsort_shard_flushes_total",
                      "Flushes one shard completed since the engine opened.",
                      labels, static_cast<double>(shard.completed_flushes));
    registry->Gauge("backsort_shard_flush_mean_seconds",
                    "Mean whole-pipeline flush time of one shard, seconds.",
                    labels, shard.flush.flush_ms.mean() * kMsToSec);
    registry->Gauge("backsort_shard_sort_mean_seconds",
                    "Mean in-flush sort time of one shard, seconds.", labels,
                    shard.flush.sort_ms.mean() * kMsToSec);
  }

  if (!include_traces) return;
  for (const ShardMetricsSnapshot& shard : snapshot.shards) {
    for (const FlushTrace& t : shard.recent_traces) {
      char buf[256];
      std::snprintf(
          buf, sizeof(buf),
          "flush-trace shard=%zu seq=%llu kind=%s points=%zu seal_ms=%.3f "
          "queue_wait_ms=%.3f sort_ms=%.3f encode_ms=%.3f fsync_ms=%.3f "
          "publish_ms=%.3f pipeline_ms=%.3f",
          t.shard_id, static_cast<unsigned long long>(t.seq),
          t.sequence ? "seq" : "unseq", t.points,
          static_cast<double>(t.seal_ns) * kNsToMs,
          static_cast<double>(t.queue_wait_ns()) * kNsToMs,
          static_cast<double>(t.sort_ns) * kNsToMs,
          static_cast<double>(t.encode_ns) * kNsToMs,
          static_cast<double>(t.fsync_ns) * kNsToMs,
          static_cast<double>(t.publish_ns) * kNsToMs,
          static_cast<double>(t.pipeline_ns()) * kNsToMs);
      registry->Comment(buf);
    }
  }
}

}  // namespace backsort
