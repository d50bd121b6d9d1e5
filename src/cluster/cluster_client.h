#ifndef BACKSORT_CLUSTER_CLUSTER_CLIENT_H_
#define BACKSORT_CLUSTER_CLUSTER_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/router.h"
#include "common/status.h"
#include "net/client.h"

namespace backsort {

struct ClusterClientOptions {
  /// Per-connection wire client tuning.
  ClientOptions client;

  /// After a connect/transport failure a node is skipped for this long
  /// (unless it is the only candidate left), so a dead primary costs one
  /// timeout, not one per request.
  int down_cooldown_ms = 1'000;
};

/// Routing client over a static cluster: each operation hashes its sensor
/// through the ClusterRouter, runs against the primary, and on a
/// connect/transport failure (IOError / Unavailable-after-retries — NOT
/// data errors like NotFound, which are answers) retries once against the
/// sensor's replica, i.e. the node the primary's replication ships to.
///
/// Failover semantics are those of asynchronous replication: reads served
/// by the replica may trail the primary by the replication lag, and a
/// WRITE applied on the replica during failover lands in the replica's
/// own dataset — when the primary returns it does not absorb that write
/// (a known divergence window, docs/OPERATIONS.md). Per-sensor LWW makes
/// replayed/duplicated points harmless; lost-primary tails are bounded by
/// backsort_cluster_backlog_bytes.
///
/// Lazily connects one BacksortClient per node. Not thread-safe — one
/// ClusterClient per thread, like BacksortClient.
class ClusterClient {
 public:
  explicit ClusterClient(ClusterConfig config,
                         ClusterClientOptions options = ClusterClientOptions());

  const ClusterConfig& config() const { return config_; }
  const ClusterRouter& router() const { return router_; }

  Status WriteBatch(const std::string& sensor,
                    const std::vector<TvPairDouble>& points);
  Status Query(const std::string& sensor, Timestamp t_min, Timestamp t_max,
               std::vector<TvPairDouble>* out);
  Status GetLatest(const std::string& sensor, TvPairDouble* out);
  Status AggregateFast(const std::string& sensor, Timestamp t_min,
                       Timestamp t_max, RangeStats* stats,
                       bool* used_fast_path = nullptr);

  /// Fetches node `node`'s metrics exposition (no routing — the caller
  /// picks the node).
  Status MetricsSnapshot(size_t node, std::string* exposition);

  /// Operations that fell over to the replica after a primary failure.
  uint64_t failovers() const { return failovers_; }

 private:
  /// True for failures that mean "node unreachable/unusable", where the
  /// replica may hold the answer. Data errors pass through verbatim.
  static bool IsFailoverError(const Status& st) {
    return st.IsIOError() || st.IsUnavailable();
  }

  /// Runs `op` against the sensor's primary, falling over to its replica
  /// on failover errors. Applies the down-cooldown bookkeeping.
  Status WithRoute(const std::string& sensor,
                   const std::function<Status(BacksortClient*)>& op);

  /// Connects node `node`'s client if needed.
  Status EnsureConnected(size_t node);

  ClusterConfig config_;
  ClusterRouter router_;
  ClusterClientOptions options_;
  std::vector<std::unique_ptr<BacksortClient>> clients_;
  /// MonotonicMillis deadline before which the node is skipped (0 = up).
  std::vector<int64_t> down_until_ms_;
  uint64_t failovers_ = 0;
};

}  // namespace backsort

#endif  // BACKSORT_CLUSTER_CLUSTER_CLIENT_H_
