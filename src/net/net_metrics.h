#ifndef BACKSORT_NET_NET_METRICS_H_
#define BACKSORT_NET_NET_METRICS_H_

#include <array>
#include <cstdint>

#include "common/metric_table.h"
#include "common/metrics_registry.h"
#include "net/protocol.h"

namespace backsort {

/// The server's metric families, one row each, in exposition order
/// (reference in docs/METRICS.md):
///   CELL(type, member, family, help, scale): a live cell in NetMetrics and
///     its NetMetricsSnapshot field of that name.
///   VALUE(type, path, family, help, scale): a NetMetricsSnapshot field the
///     server fills in from its admission control.
///   BY_TYPE(type, member, family, help, scale): one live cell per message
///     type (indexed by MsgTypeIndex), exported with a type="..." label.
/// Shed requests count in overload_rejections, not in requests_total.
#define BACKSORT_NET_METRICS(CELL, VALUE, BY_TYPE)                             \
  CELL(Counter, connections_total, "backsort_net_connections_total",           \
       "TCP connections accepted since the server started.", 1)                \
  CELL(Gauge, active_connections, "backsort_net_active_connections",           \
       "TCP connections currently open.", 1)                                   \
  CELL(Counter, bytes_in, "backsort_net_bytes_in_total",                       \
       "Request frame bytes received (headers + payloads).", 1)                \
  CELL(Counter, bytes_out, "backsort_net_bytes_out_total",                     \
       "Response frame bytes sent (headers + payloads).", 1)                   \
  CELL(Counter, overload_rejections, "backsort_net_overload_rejections_total", \
       "Requests shed with an Overloaded response by admission control.", 1)  \
  CELL(Counter, protocol_errors, "backsort_net_protocol_errors_total",         \
       "Malformed frames (bad magic, CRC, oversized or truncated) that "       \
       "closed their connection.",                                             \
       1)                                                                      \
  VALUE(Gauge, inflight_requests, "backsort_net_inflight_requests",            \
        "Requests holding an admission slot right now.", 1)                    \
  VALUE(Gauge, inflight_bytes, "backsort_net_inflight_bytes",                  \
        "Payload bytes holding admission budget right now.", 1)                \
  CELL(Counter, event_loop_wakeups, "backsort_net_event_loop_wakeups_total",   \
       "epoll_wait returns across all event-loop threads.", 1)                 \
  CELL(Counter, read_pauses, "backsort_net_read_pauses_total",                 \
       "Connections whose reads were paused because their pipeline reached "   \
       "max_pipeline_depth (backpressure events).",                            \
       1)                                                                      \
  CELL(Counter, requests_on_loop, "backsort_net_requests_on_loop_total",       \
       "Reads (ping, get_latest, aggregate_fast) answered on their "           \
       "event-loop thread because nothing earlier from their connection was "  \
       "in flight on the worker pool.",                                        \
       1)                                                                      \
  CELL(Summary, event_loop_events, "backsort_net_event_loop_events",           \
       "Readiness events delivered per epoll_wait return (event-loop "         \
       "depth); quantile=\"1\" is the observed max.",                          \
       1)                                                                      \
  CELL(Summary, pipeline_depth, "backsort_net_pipeline_depth",                 \
       "In-flight pipelined requests on a connection, sampled as each "        \
       "request frame is decoded (1 = plain request/response traffic).",       \
       1)                                                                      \
  CELL(Summary, writev_frames, "backsort_net_writev_frames",                   \
       "Response frames gathered into a single writev call (scatter/gather "   \
       "batch size).",                                                         \
       1)                                                                      \
  BY_TYPE(Counter, requests_total, "backsort_net_requests_total",              \
          "Requests served (dispatched and answered), by type.", 1)            \
  BY_TYPE(Summary, request_duration, "backsort_net_request_duration_seconds",  \
          "Server-side request latency in seconds, decode to response "        \
          "written, by type; quantile=\"1\" is the observed max.",             \
          1e-9)

#define BACKSORT_NET_LIVE_BY_TYPE(type, member, ...) \
  alignas(kCacheLineBytes)                           \
      std::array<LiveCell<MetricType::k##type>, kNumMsgTypes> member{};
#define BACKSORT_NET_FIELD_BY_TYPE(type, member, ...)                 \
  std::array<SnapshotCell<MetricType::k##type>, kNumMsgTypes> member{};

/// Point-in-time view of the server's network metrics, shipped to tests
/// and rendered by ExportNetMetrics: one field per CELL and BY_TYPE row.
struct NetMetricsSnapshot {
  BACKSORT_NET_METRICS(BACKSORT_METRIC_FIELD, BACKSORT_METRIC_SKIP,
                       BACKSORT_NET_FIELD_BY_TYPE)
  uint64_t inflight_requests = 0;  ///< admission slots held right now
  uint64_t inflight_bytes = 0;     ///< admission bytes held right now
};

/// Live network metric cells shared by the accept loop and every worker.
struct NetMetrics {
  BACKSORT_NET_METRICS(BACKSORT_METRIC_LIVE, BACKSORT_METRIC_SKIP,
                       BACKSORT_NET_LIVE_BY_TYPE)

  /// Snapshot without the admission gauges (the server layers those in).
  NetMetricsSnapshot Snapshot() const {
    NetMetricsSnapshot snap;
    BACKSORT_NET_METRICS(BACKSORT_METRIC_COPY, BACKSORT_METRIC_SKIP,
                         BACKSORT_METRIC_COPY)
    return snap;
  }
};
#undef BACKSORT_NET_LIVE_BY_TYPE
#undef BACKSORT_NET_FIELD_BY_TYPE

/// Every net family, in exposition order.
inline constexpr DeclaredFamily kNetFamilies[] = {BACKSORT_NET_METRICS(
    BACKSORT_METRIC_DECLARE, BACKSORT_METRIC_DECLARE, BACKSORT_METRIC_DECLARE)};

/// Renders one network snapshot as `backsort_net_*` registry samples with
/// `base_labels` attached — merged into the same exposition as
/// ExportEngineMetrics (the server's MetricsSnapshot RPC and `bstool
/// serve` both emit engine + net families in one document).
void ExportNetMetrics(const NetMetricsSnapshot& snapshot,
                      const MetricsRegistry::Labels& base_labels,
                      MetricsRegistry* registry);

}  // namespace backsort

#endif  // BACKSORT_NET_NET_METRICS_H_
