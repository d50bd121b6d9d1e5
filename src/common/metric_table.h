#ifndef BACKSORT_COMMON_METRIC_TABLE_H_
#define BACKSORT_COMMON_METRIC_TABLE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/latency_histogram.h"

namespace backsort {

/// Prometheus type of one exported metric family.
enum class MetricType { kCounter, kGauge, kSummary };

/// The exposition's spelling of `type` ("counter", "gauge", "summary").
constexpr const char* MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kSummary:
      return "summary";
  }
  return "untyped";
}

/// One family as a metric table row declares it. Exported values are the
/// recorded ones times `scale` (1e-9 turns nanoseconds into seconds).
struct MetricFamily {
  const char* name;
  MetricType type;
  const char* help;
  double scale;
};

/// Name and type of one declared family: what docs/METRICS.md must list.
struct DeclaredFamily {
  const char* name;
  MetricType type;
};

/// The cell a recorded row owns. The live cell is recorded on the hot path
/// with relaxed atomics (exact totals, no locks); the snapshot cell is its
/// plain copy.
template <MetricType T>
using LiveCell = std::conditional_t<T == MetricType::kSummary,
                                    LatencyHistogram, std::atomic<uint64_t>>;
template <MetricType T>
using SnapshotCell = std::conditional_t<T == MetricType::kSummary,
                                        HistogramSnapshot, uint64_t>;

/// Every live cell starts on its own cache line. A table's rows follow
/// exposition order, so without this, counters bumped by different paths
/// (writers' batch counts, readers' query counts) would share a line by
/// accident of that order.
inline constexpr size_t kCacheLineBytes = 64;

/// Snapshot of one live cell (or array of cells). Allocation-free.
inline uint64_t LoadCell(const std::atomic<uint64_t>& cell) {
  return cell.load(std::memory_order_relaxed);
}
inline HistogramSnapshot LoadCell(const LatencyHistogram& cell) {
  return cell.Snapshot();
}
template <class Cell, size_t N>
auto LoadCell(const std::array<Cell, N>& cells) {
  std::array<decltype(LoadCell(cells[0])), N> out;
  for (size_t i = 0; i < N; ++i) out[i] = LoadCell(cells[i]);
  return out;
}

/// Folds one snapshot cell into another: counts and gauges add, histograms
/// merge bucket-wise.
inline void MergeCell(uint64_t& into, uint64_t from) { into += from; }
inline void MergeCell(HistogramSnapshot& into, const HistogramSnapshot& from) {
  into.Merge(from);
}

}  // namespace backsort

// Expansions of a table row `X(type, member, family, help, scale)`, shared
// by the engine, net and cluster tables: `type` is Counter, Gauge or
// Summary. LIVE declares the live cell, FIELD the snapshot field of the
// same name, COPY copies one into the other (inside a function with a
// snapshot `snap` in scope), MERGE folds the field of a snapshot `other`
// into its own, DECLARE lists the family and EXPORT adds its
// sample from `snapshot.<member>` (with `registry` and `base_labels` in
// scope; a VALUE row passes a path such as `cache.hits` as `member`).
#define BACKSORT_METRIC_SKIP(...)
#define BACKSORT_METRIC_LIVE(type, member, ...)  \
  alignas(::backsort::kCacheLineBytes)           \
      ::backsort::LiveCell<::backsort::MetricType::k##type> member{};
#define BACKSORT_METRIC_FIELD(type, member, ...) \
  ::backsort::SnapshotCell<::backsort::MetricType::k##type> member{};
#define BACKSORT_METRIC_COPY(type, member, ...) \
  snap.member = ::backsort::LoadCell(member);
#define BACKSORT_METRIC_MERGE(type, member, ...) \
  ::backsort::MergeCell(member, other.member);
#define BACKSORT_METRIC_DECLARE(type, member, family, ...) \
  ::backsort::DeclaredFamily{family, ::backsort::MetricType::k##type},
#define BACKSORT_METRIC_EXPORT(type, member, family, help, scale)        \
  registry->Add(                                                         \
      {family, ::backsort::MetricType::k##type, help, scale}, base_labels, \
      snapshot.member);

#endif  // BACKSORT_COMMON_METRIC_TABLE_H_
