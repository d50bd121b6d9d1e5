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

/// Adds one STAGES row: a summary sample set per stage, with the HELP text
/// listing the set's stages.
template <template <class> class Set>
void AddStages(const char* family, const char* head, const char* note,
               const Set<HistogramSnapshot>& stages,
               const MetricsRegistry::Labels& base_labels,
               MetricsRegistry* registry) {
  std::string list;
  Set<HistogramSnapshot>::ForEachStage([&](const char* stage, auto) {
    if (!list.empty()) list += ", ";
    list += stage;
  });
  const std::string help = std::string(head) +
                           " stage latency in seconds (stages: " + list +
                           note + "); quantile=\"1\" is the observed max.";
  Set<HistogramSnapshot>::ForEachStage([&](const char* stage, auto get) {
    MetricsRegistry::Labels labels = base_labels;
    labels.emplace_back("stage", stage);
    registry->Add({family, MetricType::kSummary, help.c_str(), 1e-9}, labels,
                  get(stages));
  });
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

MetricsRegistry::Family* MetricsRegistry::FamilyFor(
    const MetricFamily& family) {
  auto it = family_index_.find(family.name);
  if (it != family_index_.end()) return &families_[it->second];
  family_index_[family.name] = families_.size();
  families_.push_back(
      Family{family.name, family.help, MetricTypeName(family.type), {}});
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

void MetricsRegistry::Add(const MetricFamily& family, const Labels& labels,
                          double value) {
  AddSample(FamilyFor(family), family.name, labels, value * family.scale);
}

void MetricsRegistry::Add(const MetricFamily& family, const Labels& labels,
                          const HistogramSnapshot& snapshot) {
  static constexpr double kQuantiles[] = {0.5, 0.9, 0.99, 1.0};
  Family* f = FamilyFor(family);
  for (double q : kQuantiles) {
    Labels with_quantile = labels;
    with_quantile.emplace_back("quantile", FormatValue(q));
    const double v = snapshot.count == 0
                         ? std::nan("")
                         : snapshot.ValueAtQuantile(q) * family.scale;
    AddSample(f, family.name, with_quantile, v);
  }
  const std::string name = family.name;
  AddSample(f, name + "_sum", labels,
            static_cast<double>(snapshot.sum) * family.scale);
  AddSample(f, name + "_count", labels, static_cast<double>(snapshot.count));
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
#define BACKSORT_EXPORT_STAGES(member, Set, family, head, note) \
  AddStages(family, head, note, snapshot.member, base_labels, registry);
#define BACKSORT_EXPORT_SHARD(type, path, family, help, scale)           \
  for (const ShardMetricsSnapshot& shard : snapshot.shards) {             \
    MetricsRegistry::Labels labels = base_labels;                         \
    labels.emplace_back("shard", std::to_string(shard.shard_id));         \
    registry->Add({family, MetricType::k##type, help, scale}, labels,     \
                  shard.path);                                            \
  }
  BACKSORT_ENGINE_METRICS(BACKSORT_EXPORT_STAGES, BACKSORT_METRIC_EXPORT,
                          BACKSORT_METRIC_EXPORT, BACKSORT_EXPORT_SHARD)
#undef BACKSORT_EXPORT_STAGES
#undef BACKSORT_EXPORT_SHARD

  if (!include_traces) return;
  constexpr double kNsToMs = 1e-6;
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
