#include "engine/lww_merge.h"

#include <algorithm>
#include <utility>

namespace backsort {

// --- loser tree -------------------------------------------------------------

void LoserTree::Init(size_t players, std::function<bool(size_t, size_t)> less) {
  players_ = players;
  less_ = std::move(less);
  tree_.assign(std::max<size_t>(players, 1), kNone);
  if (players <= 1) {
    tree_[0] = 0;
    return;
  }
  // Seat each leaf: walk toward the root, playing a match at every
  // occupied node (winner moves up, loser stays) and parking at the first
  // empty one. After all K leaves, tree_[0] holds the champion and every
  // internal node the loser of its match.
  for (size_t s = 0; s < players_; ++s) {
    size_t candidate = s;
    size_t node = (s + players_) / 2;
    while (node > 0 && tree_[node] != kNone) {
      if (less_(tree_[node], candidate)) {
        std::swap(tree_[node], candidate);
      }
      node /= 2;
    }
    if (node == 0) {
      tree_[0] = candidate;
    } else {
      tree_[node] = candidate;
    }
  }
}

void LoserTree::Replay() {
  if (players_ <= 1) return;
  size_t candidate = tree_[0];
  for (size_t node = (candidate + players_) / 2; node > 0; node /= 2) {
    if (less_(tree_[node], candidate)) {
      std::swap(tree_[node], candidate);
    }
  }
  tree_[0] = candidate;
}

// --- cursor -----------------------------------------------------------------

MergeCursor::MergeCursor(PageReader* reader, Timestamp t_min, Timestamp t_max)
    : reader_(reader), t_min_(t_min), t_max_(t_max) {
  std::tie(page_, end_page_) = reader->Overlap(t_min, t_max);
}

size_t MergeCursor::remaining_bound() const {
  if (reader_ == nullptr) return run_.size() - row_;
  size_t points = 0;
  for (size_t p = page_; p < end_page_; ++p) {
    points += reader_->directory()->pages[p].points;
  }
  return points;
}

Status MergeCursor::Decode() {
  RETURN_NOT_OK(reader_->DecodePage(page_));
  const std::vector<Timestamp>& times = reader_->page_times();
  if (!std::is_sorted(times.begin(), times.end())) {
    return Status::Corruption("page times go backwards");
  }
  decoded_ = true;
  row_ = 0;
  row_end_ = times.size();
  const PageEntry& e = entry();
  if (e.min_t < t_min_) {
    row_ = static_cast<size_t>(
        std::lower_bound(times.begin(), times.end(), t_min_) - times.begin());
  }
  if (e.max_t > t_max_) {
    row_end_ = static_cast<size_t>(
        std::upper_bound(times.begin(), times.end(), t_max_) - times.begin());
  }
  row_end_ = std::max(row_, row_end_);  // an inverted range holds nothing
  return Status::OK();
}

// --- sinks ------------------------------------------------------------------

namespace {

/// Calls `f(t, v)` for each in-range point of the decoded page of `c`
/// that no equal later timestamp of the page replaces.
template <typename F>
void ForEachLastWrite(const MergeCursor& c, F&& f) {
  const std::span<const Timestamp> times = c.times();
  const std::span<const double> values = c.values();
  for (size_t i = 0; i < times.size(); ++i) {
    if (i + 1 == times.size() || times[i + 1] != times[i]) {
      f(times[i], values[i]);
    }
  }
}

struct PointSink {
  std::vector<TvPairDouble>* out;

  bool Whole(size_t) const { return true; }
  Status Page(MergeCursor& c, bool) {
    RETURN_NOT_OK(c.Decode());
    ForEachLastWrite(c, [&](Timestamp t, double v) { out->push_back({t, v}); });
    return Status::OK();
  }
  Status Point(Timestamp t, double v) {
    out->push_back({t, v});
    return Status::OK();
  }
  void Decoded(const MergeCursor&) {}
};

struct StatsSink {
  Timestamp t_min;
  Timestamp t_max;
  RangeStats* stats;
  FoldTally* tally;

  bool Whole(size_t) const { return true; }
  Status Page(MergeCursor& c, bool last) {
    // Page headers carry no first/last values: a page folds from its
    // header only with a point folded before it and one still to come.
    const PageEntry& e = c.entry();
    if (!last && stats->count > 0 && e.min_t >= t_min && e.max_t <= t_max &&
        e.stats_usable()) {
      stats->MergePage(e);
      ++tally->pages_folded;
      return Status::OK();
    }
    RETURN_NOT_OK(c.Decode());
    ForEachLastWrite(c, [&](Timestamp t, double v) { stats->Fold(t, v); });
    return Status::OK();
  }
  Status Point(Timestamp t, double v) {
    stats->Fold(t, v);
    tally->merged = true;
    return Status::OK();
  }
  void Decoded(const MergeCursor&) {}
};

}  // namespace

Status MergePoints(std::vector<MergeCursor>& cursors,
                   std::vector<TvPairDouble>* out) {
  out->clear();
  size_t bound = 0;
  for (const MergeCursor& c : cursors) bound += c.remaining_bound();
  out->reserve(bound);
  PointSink sink{out};
  return MergeSources(cursors, sink);
}

Status MergeStats(std::vector<MergeCursor>& cursors, Timestamp t_min,
                  Timestamp t_max, RangeStats* stats, FoldTally* tally) {
  *stats = RangeStats{};
  StatsSink sink{t_min, t_max, stats, tally};
  return MergeSources(cursors, sink);
}

}  // namespace backsort
