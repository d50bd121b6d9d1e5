#ifndef BACKSORT_ENGINE_AGGREGATE_H_
#define BACKSORT_ENGINE_AGGREGATE_H_

#include <vector>

#include "common/range_stats.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/storage_engine.h"

namespace backsort {

/// The aggregate of one window. `agg.first`/`agg.last` are the values at
/// the earliest/latest timestamps — exactly the statistics that silently
/// go wrong on disordered data, which is why the engine sorts before
/// serving (paper Section VI-E: "adjacent points with non-consecutive
/// timestamps may fluctuate on values"). `agg` follows RangeStats' NaN
/// contract (docs/DESIGN.md §16).
struct WindowAggregate {
  Timestamp window_start = 0;  // window covers [start, start + width)
  RangeStats agg;
  /// Average of the window's non-NaN values: NaN when every value is NaN,
  /// 0 when the window is empty.
  double mean = 0.0;
};

/// Aggregates sensor values over [t_min, t_max] as one window starting at
/// t_min. agg.count == 0 when the range is empty.
Status AggregateRange(StorageEngine& engine, const std::string& sensor,
                      Timestamp t_min, Timestamp t_max,
                      WindowAggregate* result);

/// Tumbling-window aggregation ("compute the average speed of an engine in
/// every minute"): splits [t_min, t_max] into windows of `width` and
/// aggregates each. The last window is clipped at t_max. Windows with no
/// points are included with count == 0 so the output grid is regular.
Status WindowedAggregate(StorageEngine& engine, const std::string& sensor,
                         Timestamp t_min, Timestamp t_max, Timestamp width,
                         std::vector<WindowAggregate>* results);

/// Sliding-window aggregation: a window of `width` advanced by `step`
/// (step < width overlaps). The out-of-order sliding-window literature the
/// paper cites ([2]) is about exactly this operator; here it is exact
/// because the engine sorts before aggregation. Windows start at t_min,
/// t_min+step, ... while the window start is <= t_max, and each covers its
/// full width, also past t_max — so with step == width the last window can
/// hold more points than WindowedAggregate's.
Status SlidingAggregate(StorageEngine& engine, const std::string& sensor,
                        Timestamp t_min, Timestamp t_max, Timestamp width,
                        Timestamp step, std::vector<WindowAggregate>* results);

}  // namespace backsort

#endif  // BACKSORT_ENGINE_AGGREGATE_H_
