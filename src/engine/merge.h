#ifndef BACKSORT_ENGINE_MERGE_H_
#define BACKSORT_ENGINE_MERGE_H_

#include <cstddef>
#include <queue>
#include <vector>

#include "common/types.h"

namespace backsort {

/// One sorted input of a k-way query merge. `priority` encodes write
/// recency: when two sources hold the same timestamp, the higher-priority
/// (more recently written) value wins, replicating IoTDB's last-write-wins
/// read semantics across sequence files, unsequence files and memtables.
struct SortedRun {
  std::vector<TvPairDouble> points;
  int priority = 0;
};

/// K-way merges sorted runs into `out`. Equal timestamps collapse to the
/// highest-priority source's value (ties within one run keep the later
/// element — TVLists sort stably, so that is the latest arrival).
///
/// O(N log k) with a min-heap; runs are consumed without copying until
/// output. A single non-empty run (the common sealed-only query) skips the
/// heap: it becomes the output and equal timestamps collapse in place.
inline void MergeRuns(std::vector<SortedRun>&& runs,
                      std::vector<TvPairDouble>* out) {
  out->clear();
  size_t total = 0;
  size_t nonempty = 0;
  SortedRun* only = nullptr;
  for (SortedRun& r : runs) {
    total += r.points.size();
    if (!r.points.empty()) {
      ++nonempty;
      only = &r;
    }
  }
  if (nonempty == 1) {
    *out = std::move(only->points);
    size_t w = 0;
    for (const TvPairDouble& p : *out) {
      if (w > 0 && (*out)[w - 1].t == p.t) {
        (*out)[w - 1] = p;  // the later element wins
      } else {
        (*out)[w++] = p;
      }
    }
    out->resize(w);
    return;
  }
  out->reserve(total);
  if (total == 0) return;

  // Heap entry: (timestamp, priority, run index, element index). Pop order:
  // smallest timestamp first; among equal timestamps, LOWER priority first
  // so the highest-priority value is popped last and wins the overwrite.
  struct Cursor {
    Timestamp t;
    int priority;
    size_t run;
    size_t idx;
  };
  auto greater = [](const Cursor& a, const Cursor& b) {
    if (a.t != b.t) return a.t > b.t;
    return a.priority > b.priority;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(greater)> heap(
      greater);
  for (size_t r = 0; r < runs.size(); ++r) {
    if (!runs[r].points.empty()) {
      heap.push({runs[r].points[0].t, runs[r].priority, r, 0});
    }
  }
  while (!heap.empty()) {
    const Cursor c = heap.top();
    heap.pop();
    const TvPairDouble& p = runs[c.run].points[c.idx];
    if (!out->empty() && out->back().t == p.t) {
      out->back() = p;  // higher-priority duplicate overwrites
    } else {
      out->push_back(p);
    }
    const size_t next = c.idx + 1;
    if (next < runs[c.run].points.size()) {
      heap.push({runs[c.run].points[next].t, c.priority, c.run, next});
    }
  }
}

}  // namespace backsort

#endif  // BACKSORT_ENGINE_MERGE_H_
