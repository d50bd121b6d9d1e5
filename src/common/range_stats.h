#ifndef BACKSORT_COMMON_RANGE_STATS_H_
#define BACKSORT_COMMON_RANGE_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "common/chunk_locator.h"
#include "common/types.h"

namespace backsort {

/// The aggregate of a time range — count, sum, min, max, and the values at
/// the earliest/latest timestamps — and the engine's one fold for it. The
/// page encoder, the footer writer, the page-stats read, the engine's
/// statistics plan and the window operators all build their answers here.
///
/// NaN contract (docs/DESIGN.md §16): NaN is counted and eligible as
/// first/last, but never enters min/max/sum. A range whose values are all
/// NaN reads min = +inf, max = -inf, sum = 0; an empty range (count == 0)
/// reads all zeros.
struct RangeStats {
  size_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  Timestamp first_time = 0;
  double first = 0.0;
  Timestamp last_time = 0;
  double last = 0.0;

  /// Folds the next point, in time order. Summing left to right makes
  /// `sum` exactly what a sequential decode of the same points computes.
  void Fold(Timestamp t, double v) {
    if (count == 0) {
      first_time = t;
      first = v;
      min = std::numeric_limits<double>::infinity();
      max = -std::numeric_limits<double>::infinity();
    }
    ++count;
    last_time = t;
    last = v;
    if (!std::isnan(v)) {
      min = std::min(min, v);
      max = std::max(max, v);
      sum += v;
    }
  }

  /// Merges the partial aggregate of a disjoint set of points (sequence
  /// chunks never overlap per sensor): counts and sums add, min/max
  /// combine, first/last go to the earlier/later timestamp. An empty
  /// `part` is a no-op; merging into an empty aggregate copies `part`.
  void Merge(const RangeStats& part) {
    if (part.count == 0) return;
    if (count == 0) {
      *this = part;
      return;
    }
    MergeValues(part.count, part.min, part.max, part.sum);
    if (part.first_time < first_time) {
      first_time = part.first_time;
      first = part.first;
    }
    if (part.last_time > last_time) {
      last_time = part.last_time;
      last = part.last;
    }
  }

  /// Merges a page's header stats. Page headers carry no first/last
  /// values, so first/last stay as they are: the caller must already have
  /// folded a point before the page, and fold one after it.
  void MergePage(const PageEntry& page) {
    MergeValues(page.points, page.min_v, page.max_v, page.sum_v);
  }

  /// A whole chunk's aggregate, read from its BSTF2 footer entry.
  static RangeStats OfChunk(const ChunkLocator& chunk) {
    return {chunk.points, chunk.sum_v,   chunk.min_v, chunk.max_v,
            chunk.min_t,  chunk.first_v, chunk.max_t, chunk.last_v};
  }

 private:
  void MergeValues(size_t n, double lo, double hi, double s) {
    count += n;
    min = std::min(min, lo);
    max = std::max(max, hi);
    sum += s;
  }
};

}  // namespace backsort

#endif  // BACKSORT_COMMON_RANGE_STATS_H_
