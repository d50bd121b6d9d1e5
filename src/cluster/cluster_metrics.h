#ifndef BACKSORT_CLUSTER_CLUSTER_METRICS_H_
#define BACKSORT_CLUSTER_CLUSTER_METRICS_H_

#include "common/metric_table.h"
#include "common/metrics_registry.h"

namespace backsort {

/// One node's replication-shipping families, one CELL(type, member,
/// family, help, scale) row each, in exposition order: a live cell in
/// ClusterMetrics (recorded by the Replicator) and its
/// ClusterMetricsSnapshot field of that name (reference in
/// docs/METRICS.md).
#define BACKSORT_CLUSTER_METRICS(CELL)                                       \
  CELL(Counter, ship_chunks, "backsort_cluster_ship_chunks_total",           \
       "Replication chunks accepted by the follower.", 1)                    \
  CELL(Counter, ship_records, "backsort_cluster_ship_records_total",         \
       "Points shipped to the follower inside accepted chunks.", 1)          \
  CELL(Counter, ship_bytes, "backsort_cluster_ship_bytes_total",             \
       "Encoded replication request-payload bytes shipped.", 1)              \
  CELL(Counter, acked_records, "backsort_cluster_acked_records_total",       \
       "Points covered by a follower ack whose cursor reached the chunk end " \
       "(durably applied and resumable).",                                   \
       1)                                                                    \
  CELL(Counter, ship_errors, "backsort_cluster_ship_errors_total",           \
       "Failed ship RPCs and ship-log read errors.", 1)                      \
  CELL(Counter, reconnects, "backsort_cluster_reconnects_total",             \
       "Follower (re)connection attempts after the first established "       \
       "replication stream.",                                                \
       1)                                                                    \
  CELL(Gauge, backlog_bytes, "backsort_cluster_backlog_bytes",               \
       "Ship-log bytes between the acknowledged frontier and the end of the " \
       "log — the replication lag in bytes.",                                \
       1)                                                                    \
  CELL(Summary, ship_rtt_ns, "backsort_cluster_ship_rtt_seconds",            \
       "Ship RPC round-trip in seconds (encode to follower ack); "           \
       "quantile=\"1\" is the observed max.",                                \
       1e-9)

/// Point-in-time copy of one node's replication-shipping cells.
struct ClusterMetricsSnapshot {
  BACKSORT_CLUSTER_METRICS(BACKSORT_METRIC_FIELD)

  /// Folds another node's snapshot into this one: every count and the
  /// backlog gauge add up, the round-trip histograms merge.
  void Merge(const ClusterMetricsSnapshot& other) {
    BACKSORT_CLUSTER_METRICS(BACKSORT_METRIC_MERGE)
  }
};

/// Live replication-shipping cells, exported into the node's Prometheus
/// exposition as the `backsort_cluster_*` families.
struct ClusterMetrics {
  BACKSORT_CLUSTER_METRICS(BACKSORT_METRIC_LIVE)

  ClusterMetricsSnapshot Snapshot() const {
    ClusterMetricsSnapshot snap;
    BACKSORT_CLUSTER_METRICS(BACKSORT_METRIC_COPY)
    return snap;
  }
};

/// Every cluster family, in exposition order.
inline constexpr DeclaredFamily kClusterFamilies[] = {
    BACKSORT_CLUSTER_METRICS(BACKSORT_METRIC_DECLARE)};

/// Renders a snapshot as `backsort_cluster_*` registry samples — plugged
/// into BacksortServer::SetExtraMetricsExporter so replication health is
/// scraped from the same exposition as engine and net metrics.
void ExportClusterMetrics(const ClusterMetricsSnapshot& snapshot,
                          const MetricsRegistry::Labels& base_labels,
                          MetricsRegistry* registry);

}  // namespace backsort

#endif  // BACKSORT_CLUSTER_CLUSTER_METRICS_H_
