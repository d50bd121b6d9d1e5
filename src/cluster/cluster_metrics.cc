#include "cluster/cluster_metrics.h"

namespace backsort {

void ExportClusterMetrics(const ClusterMetricsSnapshot& snapshot,
                          const MetricsRegistry::Labels& base_labels,
                          MetricsRegistry* registry) {
  BACKSORT_CLUSTER_METRICS(BACKSORT_METRIC_EXPORT)
}

}  // namespace backsort
