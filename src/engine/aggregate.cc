#include "engine/aggregate.h"

#include <cmath>
#include <limits>

namespace backsort {

namespace {

/// a + b for b >= 0, clamped at the largest Timestamp.
Timestamp AddClamped(Timestamp a, Timestamp b) {
  Timestamp sum;
  if (__builtin_add_overflow(a, b, &sum)) {
    return std::numeric_limits<Timestamp>::max();
  }
  return sum;
}

/// Folds the sorted points [begin, end) into the window starting at
/// `start`. The engine returns points sorted by time, so the fold's
/// positional first/last are temporal first/last.
WindowAggregate FoldWindow(Timestamp start, const TvPairDouble* begin,
                           const TvPairDouble* end) {
  WindowAggregate w;
  w.window_start = start;
  size_t finite = 0;
  for (const TvPairDouble* p = begin; p != end; ++p) {
    w.agg.Fold(p->t, p->v);
    finite += std::isnan(p->v) ? 0 : 1;
  }
  if (w.agg.count > 0) {
    w.mean = finite == 0 ? std::nan("")
                         : w.agg.sum / static_cast<double>(finite);
  }
  return w;
}

/// The one window loop: windows of `width` at t_min, t_min + step, ...
/// while the start is <= t_max. Tumbling windows (`clip`) aggregate a
/// query clipped at t_max; sliding windows query through the end of the
/// last window. Window ends and the next start saturate instead of
/// overflowing, so ranges reaching the ends of Timestamp are safe.
Status FoldWindows(StorageEngine& engine, const std::string& sensor,
                   Timestamp t_min, Timestamp t_max, Timestamp width,
                   Timestamp step, bool clip,
                   std::vector<WindowAggregate>* results) {
  results->clear();
  if (width <= 0 || step <= 0) {
    return Status::InvalidArgument("window width and step must be positive");
  }
  if (t_max < t_min) {
    return Status::InvalidArgument("t_max before t_min");
  }
  std::vector<TvPairDouble> points;
  RETURN_NOT_OK(engine.Query(sensor, t_min,
                             clip ? t_max : AddClamped(t_max, width - 1),
                             &points));
  // Two monotone cursors over the sorted points: windows advance by step,
  // so begin/end only ever move right. O(points + windows) total.
  const TvPairDouble* begin = points.data();
  const TvPairDouble* end = begin;
  const TvPairDouble* const stop = begin + points.size();
  Timestamp start = t_min;
  while (true) {
    const Timestamp last = AddClamped(start, width - 1);  // inclusive
    while (begin != stop && begin->t < start) ++begin;
    if (end < begin) end = begin;
    while (end != stop && end->t <= last) ++end;
    results->push_back(FoldWindow(start, begin, end));
    if (__builtin_add_overflow(start, step, &start) || start > t_max) break;
  }
  return Status::OK();
}

}  // namespace

Status AggregateRange(StorageEngine& engine, const std::string& sensor,
                      Timestamp t_min, Timestamp t_max,
                      WindowAggregate* result) {
  std::vector<TvPairDouble> points;
  RETURN_NOT_OK(engine.Query(sensor, t_min, t_max, &points));
  *result = FoldWindow(t_min, points.data(), points.data() + points.size());
  return Status::OK();
}

Status SlidingAggregate(StorageEngine& engine, const std::string& sensor,
                        Timestamp t_min, Timestamp t_max, Timestamp width,
                        Timestamp step,
                        std::vector<WindowAggregate>* results) {
  return FoldWindows(engine, sensor, t_min, t_max, width, step,
                     /*clip=*/false, results);
}

Status WindowedAggregate(StorageEngine& engine, const std::string& sensor,
                         Timestamp t_min, Timestamp t_max, Timestamp width,
                         std::vector<WindowAggregate>* results) {
  return FoldWindows(engine, sensor, t_min, t_max, width, width,
                     /*clip=*/true, results);
}

}  // namespace backsort
