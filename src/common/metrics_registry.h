#ifndef BACKSORT_COMMON_METRICS_REGISTRY_H_
#define BACKSORT_COMMON_METRICS_REGISTRY_H_

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/engine_metrics.h"
#include "common/latency_histogram.h"
#include "common/metric_table.h"
#include "common/status.h"

namespace backsort {

/// Collects metric samples and renders them in the Prometheus text
/// exposition format (version 0.0.4): one `# HELP` / `# TYPE` header per
/// family followed by its samples, in registration order. The registry is
/// sample-oriented — callers push current values (typically converted from
/// an EngineMetricsSnapshot via ExportEngineMetrics), render, and discard —
/// so one registry can also accumulate the same families across many
/// engine runs under different label sets (the bench harness does this).
class MetricsRegistry {
 public:
  /// Label set attached to one sample, rendered in the given order.
  using Labels = std::vector<std::pair<std::string, std::string>>;

  /// Adds one sample of a declared counter or gauge family: `value` times
  /// the family's scale. The family's HELP/TYPE header is emitted on first
  /// use; the help of later samples of the same family is ignored.
  void Add(const MetricFamily& family, const Labels& labels, double value);

  /// Adds one sample set of a declared summary family, rendered from a
  /// histogram snapshot: quantile samples (0.5, 0.9, 0.99 and 1 = observed
  /// max) scaled by the family's scale, plus `name_sum` and `name_count`.
  /// Empty snapshots render NaN quantiles, like standard Prometheus client
  /// libraries.
  void Add(const MetricFamily& family, const Labels& labels,
           const HistogramSnapshot& snapshot);

  /// Appends a free-form `# ` comment after all families — still valid
  /// exposition (scrapers skip unknown comments). Used for flush-trace
  /// spans, which have no Prometheus metric shape.
  void Comment(const std::string& text);

  /// Renders everything collected so far as Prometheus text exposition.
  std::string RenderPrometheus() const;

  /// Renders and writes to `path` via a temp file + rename, so a
  /// concurrent reader (`bstool watch`) never sees a torn file.
  Status WriteFile(const std::string& path) const;

  /// Escapes a label value per the exposition format (backslash, quote,
  /// newline). Exposed for tests.
  static std::string EscapeLabelValue(const std::string& v);

 private:
  struct Family {
    std::string name;
    std::string help;
    std::string type;
    std::vector<std::string> lines;  // fully formatted sample lines
  };

  Family* FamilyFor(const MetricFamily& family);
  void AddSample(Family* family, const std::string& sample_name,
                 const Labels& labels, double value);

  std::vector<Family> families_;
  std::map<std::string, size_t> family_index_;
  std::vector<std::string> comments_;
};

/// Converts one engine metrics snapshot into registry samples, attaching
/// `base_labels` to every sample (the bench harness labels runs with
/// panel/sorter/write_pct; bstool passes no labels). Exports one family per
/// row of BACKSORT_ENGINE_METRICS, in row order. When `include_traces` is
/// set, each shard's recent FlushTrace spans are
/// appended as `# flush-trace ...` comments.
void ExportEngineMetrics(const EngineMetricsSnapshot& snapshot,
                         const MetricsRegistry::Labels& base_labels,
                         bool include_traces, MetricsRegistry* registry);

}  // namespace backsort

#endif  // BACKSORT_COMMON_METRICS_REGISTRY_H_
