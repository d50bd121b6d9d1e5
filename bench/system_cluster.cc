// Cluster scale-out benchmark: in-process clusters of 1, 2 and 4
// BacksortServer nodes (replication shipping enabled beyond one node)
// driven through ClusterClient, so every write and query pays the real
// routing + wire + replication cost. Per panel it reports aggregate
// write/query throughput, the replication ship-RTT p50/p99 (the lag a
// killed primary would lose, see docs/OPERATIONS.md), and the end-state
// backlog; the JSON's "scale_out_2v1" / "efficiency_2" keys pin the
// 2-node-vs-1 ratio. All nodes share this host's cores — on a
// single-core box the panels measure added cluster overhead, not
// speedup, which is why the JSON also records "host_cores" and CI gates
// on a conservative floor rather than the multi-host ideal. Scale
// knobs:
//   BACKSORT_SYSTEM_POINTS      total points per panel   (default 60'000)
//   BACKSORT_CLUSTER_CLIENTS    client threads            (default 2)
//   BACKSORT_CLUSTER_SENSORS    distinct sensors          (default 8)
//   BACKSORT_CLUSTER_QUERIES    queries per client        (default 40)
// Exposition (engine + net + cluster families per node) goes to
// $BACKSORT_METRICS_DIR/system_cluster.metrics.prom.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/system_bench.h"
#include "cluster/cluster_client.h"
#include "cluster/cluster_config.h"
#include "cluster/cluster_metrics.h"
#include "cluster/replicator.h"
#include "cluster/router.h"
#include "net/server.h"

namespace backsort::bench {
namespace {

std::vector<TvPairDouble> MakeBatch(size_t start, size_t count) {
  std::vector<TvPairDouble> points;
  points.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const auto t = static_cast<Timestamp>(start + i);
    points.push_back({t, static_cast<double>(t) * 0.5});
  }
  return points;
}

struct PanelResult {
  size_t nodes = 0;
  double write_points_per_sec = 0;
  double query_per_sec = 0;
  double ship_rtt_p50_ms = 0;
  double ship_rtt_p99_ms = 0;
  double catchup_ms = 0;       // write end -> all followers acked
  uint64_t ship_errors = 0;
  uint64_t end_backlog_bytes = 0;
};

/// One in-process cluster: N servers plus the N ring replicators
/// (i ships to (i+1) % N), exactly the composition `bstool serve
/// --cluster` runs, minus process boundaries.
class InProcessCluster {
 public:
  InProcessCluster(const std::filesystem::path& base, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      EngineOptions engine_opt;
      engine_opt.data_dir = (base / ("node" + std::to_string(i))).string();
      engine_opt.replication_log = n > 1;
      ServerOptions server_opt;  // ephemeral port
      servers_.push_back(
          std::make_unique<BacksortServer>(engine_opt, server_opt));
    }
  }

  bool Start() {
    for (auto& server : servers_) {
      if (!server->Start().ok()) return false;
    }
    for (size_t i = 0; i < servers_.size(); ++i) {
      config_.nodes.push_back({"node" + std::to_string(i), "127.0.0.1",
                               servers_[i]->port()});
    }
    if (servers_.size() > 1) {
      metrics_.resize(servers_.size());
      for (size_t i = 0; i < servers_.size(); ++i) {
        metrics_[i] = std::make_unique<ClusterMetrics>();
        ReplicatorOptions opt;
        opt.source_id = config_.nodes[i].id;
        opt.follower_host = "127.0.0.1";
        opt.follower_port = servers_[(i + 1) % servers_.size()]->port();
        opt.data_dir = servers_[i]->engine()->options().data_dir;
        opt.shard_count = servers_[i]->engine()->shard_count();
        opt.poll_idle_ms = 2;
        replicators_.push_back(
            std::make_unique<Replicator>(opt, metrics_[i].get()));
        if (!replicators_.back()->Start().ok()) return false;
      }
    }
    return true;
  }

  void Stop() {
    for (auto& replicator : replicators_) replicator->Stop();
    for (auto& server : servers_) server->Stop();
  }

  size_t size() const { return servers_.size(); }
  const ClusterConfig& config() const { return config_; }
  BacksortServer* server(size_t i) { return servers_[i].get(); }
  const ClusterMetrics* metrics(size_t i) const { return metrics_[i].get(); }

  /// Merged snapshot across the ring's shippers.
  ClusterMetricsSnapshot MergedMetrics() const {
    ClusterMetricsSnapshot merged;
    for (const auto& m : metrics_) merged.Merge(m->Snapshot());
    return merged;
  }

 private:
  std::vector<std::unique_ptr<BacksortServer>> servers_;
  std::vector<std::unique_ptr<ClusterMetrics>> metrics_;
  std::vector<std::unique_ptr<Replicator>> replicators_;
  ClusterConfig config_;
};

bool RunPanel(const std::filesystem::path& base, size_t nodes,
              size_t total_points, size_t clients, size_t sensors,
              size_t queries_per_client, MetricsRegistry* registry,
              PanelResult* out) {
  InProcessCluster cluster(base / ("n" + std::to_string(nodes)), nodes);
  if (!cluster.Start()) {
    std::fprintf(stderr, "cluster of %zu failed to start\n", nodes);
    return false;
  }

  const size_t batch = 500;
  const size_t points_per_sensor = total_points / sensors;
  std::vector<std::string> names;
  for (size_t s = 0; s < sensors; ++s) {
    names.push_back("cluster.sensor." + std::to_string(s));
  }

  // --- write phase: sensors partitioned across client threads, each
  // thread routing through its own ClusterClient.
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  WallTimer write_timer;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClusterClient client(cluster.config());
      for (size_t off = 0; off < points_per_sensor; off += batch) {
        const size_t n = std::min(batch, points_per_sensor - off);
        const auto points = MakeBatch(off, n);
        for (size_t s = c; s < sensors; s += clients) {
          if (!client.WriteBatch(names[s], points).ok()) {
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double write_sec = write_timer.ElapsedSeconds();
  threads.clear();
  if (failures.load() != 0) {
    std::fprintf(stderr, "%zu write clients failed (nodes=%zu)\n",
                 failures.load(), nodes);
    cluster.Stop();
    return false;
  }

  // --- replication catch-up: every shipper drains its backlog. The time
  // from last write to empty backlogs is the worst-case window a kill
  // right at write-end would lose.
  WallTimer catchup;
  if (nodes > 1) {
    for (;;) {
      uint64_t backlog = 0;
      for (size_t i = 0; i < nodes; ++i) {
        backlog += cluster.metrics(i)->backlog_bytes.load();
      }
      if (backlog == 0) break;
      if (catchup.ElapsedSeconds() > 60.0) {
        std::fprintf(stderr, "replication catch-up stalled (nodes=%zu)\n",
                     nodes);
        cluster.Stop();
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const double catchup_ms = nodes > 1 ? catchup.ElapsedMillis() : 0.0;

  // --- query phase ----------------------------------------------------------
  WallTimer query_timer;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClusterClient client(cluster.config());
      const auto span = static_cast<Timestamp>(points_per_sensor);
      for (size_t q = 0; q < queries_per_client; ++q) {
        const std::string& sensor = names[(c + q) % sensors];
        const Timestamp lo = (static_cast<Timestamp>(q) * 37) % span;
        std::vector<TvPairDouble> points;
        if (!client.Query(sensor, lo, lo + span / 10, &points).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double query_sec = query_timer.ElapsedSeconds();
  if (failures.load() != 0) {
    std::fprintf(stderr, "%zu query clients failed (nodes=%zu)\n",
                 failures.load(), nodes);
    cluster.Stop();
    return false;
  }

  out->nodes = nodes;
  out->write_points_per_sec =
      write_sec > 0
          ? static_cast<double>(points_per_sensor * sensors) / write_sec
          : 0;
  out->query_per_sec =
      query_sec > 0
          ? static_cast<double>(queries_per_client * clients) / query_sec
          : 0;
  out->catchup_ms = catchup_ms;
  if (nodes > 1) {
    const ClusterMetricsSnapshot merged = cluster.MergedMetrics();
    out->ship_rtt_p50_ms = merged.ship_rtt_ns.Percentile(50) * 1e-6;
    out->ship_rtt_p99_ms = merged.ship_rtt_ns.Percentile(99) * 1e-6;
    out->ship_errors = merged.ship_errors;
    out->end_backlog_bytes = merged.backlog_bytes;
    ExportClusterMetrics(merged,
                         {{"nodes", std::to_string(nodes)}}, registry);
  }
  cluster.Stop();
  return true;
}

int Run() {
  const size_t total_points = EnvSize("BACKSORT_SYSTEM_POINTS", 60'000);
  const size_t clients =
      std::max<size_t>(EnvSize("BACKSORT_CLUSTER_CLIENTS", 2), 1);
  const size_t sensors =
      std::max<size_t>(EnvSize("BACKSORT_CLUSTER_SENSORS", 8), clients);
  const size_t queries_per_client = EnvSize("BACKSORT_CLUSTER_QUERIES", 40);

  const std::filesystem::path base =
      std::filesystem::temp_directory_path() /
      ("backsort_system_cluster_" + std::to_string(::getpid()));
  std::error_code ec;
  std::filesystem::remove_all(base, ec);

  const unsigned host_cores = std::thread::hardware_concurrency();
  std::printf("system_cluster: %zu points/panel, %zu clients, %zu sensors, "
              "%u host cores\n",
              total_points, clients, sensors, host_cores);

  MetricsRegistry metrics;
  const size_t node_counts[] = {1, 2, 4};
  std::vector<PanelResult> panels;
  for (const size_t nodes : node_counts) {
    PanelResult panel;
    if (!RunPanel(base, nodes, total_points, clients, sensors,
                  queries_per_client, &metrics, &panel)) {
      return 1;
    }
    panels.push_back(panel);
  }

  PrintTitle("cluster scale-out (in-process nodes, shared host cores)");
  PrintHeader("metric", {"1 node", "2 nodes", "4 nodes"});
  PrintRow("write kpts/s", {panels[0].write_points_per_sec / 1e3,
                            panels[1].write_points_per_sec / 1e3,
                            panels[2].write_points_per_sec / 1e3});
  PrintRow("query/s", {panels[0].query_per_sec, panels[1].query_per_sec,
                       panels[2].query_per_sec});
  PrintRow("ship rtt p50 ms", {0.0, panels[1].ship_rtt_p50_ms,
                               panels[2].ship_rtt_p50_ms});
  PrintRow("ship rtt p99 ms", {0.0, panels[1].ship_rtt_p99_ms,
                               panels[2].ship_rtt_p99_ms});
  PrintRow("catch-up ms", {0.0, panels[1].catchup_ms, panels[2].catchup_ms});

  const double scale_2v1 =
      panels[0].write_points_per_sec > 0
          ? panels[1].write_points_per_sec / panels[0].write_points_per_sec
          : 0;
  const double scale_4v1 =
      panels[0].write_points_per_sec > 0
          ? panels[2].write_points_per_sec / panels[0].write_points_per_sec
          : 0;
  std::printf("2-node/1-node write throughput = %.2fx (efficiency %.2f); "
              "4-node = %.2fx (efficiency %.2f)\n",
              scale_2v1, scale_2v1 / 2, scale_4v1, scale_4v1 / 4);
  if (host_cores <= 2) {
    std::printf("note: %u-core host — in-process nodes contend for the same "
                "cores, so these ratios bound cluster OVERHEAD, not the "
                "multi-host speedup.\n", host_cores);
  }

  JsonWriter json;
  json.Field("bench", "system_cluster");
  json.Field("points_per_panel", total_points);
  json.Field("clients", clients);
  json.Field("sensors", sensors);
  json.Field("queries_per_client", queries_per_client);
  json.Field("host_cores", static_cast<size_t>(host_cores));
  json.Field("scale_out_2v1", scale_2v1);
  json.Field("efficiency_2", scale_2v1 / 2);
  json.Field("scale_out_4v1", scale_4v1);
  json.Field("efficiency_4", scale_4v1 / 4);
  for (const PanelResult& panel : panels) {
    json.BeginObject("nodes_" + std::to_string(panel.nodes));
    json.Field("write_points_per_sec", panel.write_points_per_sec);
    json.Field("query_per_sec", panel.query_per_sec);
    json.Field("ship_rtt_p50_ms", panel.ship_rtt_p50_ms);
    json.Field("ship_rtt_p99_ms", panel.ship_rtt_p99_ms);
    json.Field("catchup_ms", panel.catchup_ms);
    json.Field("ship_errors", static_cast<size_t>(panel.ship_errors));
    json.Field("end_backlog_bytes",
               static_cast<size_t>(panel.end_backlog_bytes));
    json.EndObject();
  }
  WriteBenchMetrics(metrics, "system_cluster");
  WriteBenchJson(json, "system_cluster");
  std::filesystem::remove_all(base, ec);
  return 0;
}

}  // namespace
}  // namespace backsort::bench

int main() { return backsort::bench::Run(); }
