#include "cluster/cluster_client.h"

#include "net/socket.h"

namespace backsort {

ClusterClient::ClusterClient(ClusterConfig config,
                             ClusterClientOptions options)
    : config_(std::move(config)),
      router_(config_),
      options_(options),
      clients_(config_.size()),
      down_until_ms_(config_.size(), 0) {}

Status ClusterClient::EnsureConnected(size_t node) {
  if (clients_[node] == nullptr) {
    clients_[node] = std::make_unique<BacksortClient>(options_.client);
  }
  if (clients_[node]->connected()) return Status::OK();
  const ClusterNodeSpec& spec = config_.nodes[node];
  return clients_[node]->Connect(spec.host, spec.port);
}

Status ClusterClient::WithRoute(
    const std::string& sensor,
    const std::function<Status(BacksortClient*)>& op) {
  if (config_.size() == 0) {
    return Status::InvalidArgument("cluster client has no nodes");
  }
  const size_t primary = router_.PrimaryFor(sensor);
  const size_t replica = router_.ReplicaFor(sensor);
  const size_t candidates[2] = {primary, replica};
  const size_t candidate_count = primary == replica ? 1 : 2;

  const int64_t now = MonotonicMillis();
  Status last = Status::IOError("no cluster node reachable");
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < candidate_count; ++i) {
      const size_t node = candidates[i];
      // First pass honors the down-cooldown; the second ignores it, so
      // every request still tries SOMETHING when all candidates are
      // cooling down (a cooldown must dampen retries, not answer them).
      if (pass == 0 && down_until_ms_[node] > now) continue;

      Status st = EnsureConnected(node);
      if (st.ok()) st = op(clients_[node].get());
      if (!IsFailoverError(st)) {
        down_until_ms_[node] = 0;
        if (node != primary) ++failovers_;
        return st;  // success, or a data error worth reporting verbatim
      }
      down_until_ms_[node] = now + options_.down_cooldown_ms;
      if (clients_[node] != nullptr) clients_[node]->Close();
      last = st;
    }
  }
  return last;
}

Status ClusterClient::WriteBatch(const std::string& sensor,
                                 const std::vector<TvPairDouble>& points) {
  return WithRoute(sensor, [&](BacksortClient* client) {
    return client->WriteBatch(sensor, points);
  });
}

Status ClusterClient::Query(const std::string& sensor, Timestamp t_min,
                            Timestamp t_max,
                            std::vector<TvPairDouble>* out) {
  return WithRoute(sensor, [&](BacksortClient* client) {
    return client->Query(sensor, t_min, t_max, out);
  });
}

Status ClusterClient::GetLatest(const std::string& sensor, TvPairDouble* out) {
  return WithRoute(sensor, [&](BacksortClient* client) {
    return client->GetLatest(sensor, out);
  });
}

Status ClusterClient::AggregateFast(const std::string& sensor,
                                    Timestamp t_min, Timestamp t_max,
                                    RangeStats* stats,
                                    bool* used_fast_path) {
  return WithRoute(sensor, [&](BacksortClient* client) {
    return client->AggregateFast(sensor, t_min, t_max, stats, used_fast_path);
  });
}

Status ClusterClient::MetricsSnapshot(size_t node, std::string* exposition) {
  if (node >= config_.size()) {
    return Status::InvalidArgument("cluster node index out of range");
  }
  RETURN_NOT_OK(EnsureConnected(node));
  return clients_[node]->MetricsSnapshot(exposition);
}

}  // namespace backsort
