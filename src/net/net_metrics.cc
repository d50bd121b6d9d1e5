#include "net/net_metrics.h"

namespace backsort {

void ExportNetMetrics(const NetMetricsSnapshot& snapshot,
                      const MetricsRegistry::Labels& base_labels,
                      MetricsRegistry* registry) {
#define BACKSORT_NET_EXPORT_BY_TYPE(type, member, family, help, scale)      \
  for (size_t i = 0; i < kNumMsgTypes; ++i) {                              \
    MetricsRegistry::Labels labels = base_labels;                          \
    labels.emplace_back("type", MsgTypeName(static_cast<MsgType>(i + 1))); \
    registry->Add({family, MetricType::k##type, help, scale}, labels,      \
                  snapshot.member[i]);                                     \
  }
  BACKSORT_NET_METRICS(BACKSORT_METRIC_EXPORT, BACKSORT_METRIC_EXPORT,
                       BACKSORT_NET_EXPORT_BY_TYPE)
#undef BACKSORT_NET_EXPORT_BY_TYPE
}

}  // namespace backsort
