#ifndef BACKSORT_ENGINE_LWW_MERGE_H_
#define BACKSORT_ENGINE_LWW_MERGE_H_

#include <cstddef>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/range_stats.h"
#include "common/status.h"
#include "common/types.h"
#include "tsfile/tsfile.h"

namespace backsort {

/// Tournament loser tree selecting the minimum of K sorted cursors in
/// O(log K) comparisons per pop (vs the binary heap's pop+push pair).
/// Players are cursor indices; `less(a, b)` orders player a's current key
/// before player b's. tree_[0] holds the overall winner, tree_[1..K-1]
/// hold the losers of their subtree matches; after the winner's cursor
/// advances, Replay re-runs only the matches on its leaf-to-root path.
class LoserTree {
 public:
  /// Builds the tree over `players` cursors. `less` must totally order
  /// the players (exhausted cursors compare last).
  void Init(size_t players, std::function<bool(size_t, size_t)> less);

  size_t winner() const { return tree_[0]; }

  /// Re-seats the current winner after its key changed (advance or
  /// exhaustion).
  void Replay();

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  size_t players_ = 0;
  std::function<bool(size_t, size_t)> less_;
  /// tree_[0] = winner; tree_[1..players-1] = internal loser nodes. Leaf
  /// s enters at node (s + players) / 2.
  std::vector<size_t> tree_;
};

/// One sorted source of the last-write-wins merge: either a page cursor
/// over the pages of a sealed chunk that overlap [t_min, t_max] (holding
/// at most one decoded page, and skipping a boundary page's points
/// outside the range), or a run cursor over sorted in-memory points, all
/// inside the range. At the start of a page the cursor is keyed by the
/// directory's min_t; DecodePage checks that against the data, so a
/// lying header still fails the read.
class MergeCursor {
 public:
  explicit MergeCursor(
      PageReader* reader,
      Timestamp t_min = std::numeric_limits<Timestamp>::min(),
      Timestamp t_max = std::numeric_limits<Timestamp>::max());
  explicit MergeCursor(std::span<const TvPairDouble> run) : run_(run) {}

  bool done() const {
    return reader_ == nullptr ? row_ == run_.size() : page_ == end_page_;
  }
  bool at_page_start() const { return reader_ != nullptr && !decoded_; }
  const PageEntry& entry() const { return reader_->directory()->pages[page_]; }
  /// The next point's timestamp, or the page's min_t before its decode.
  Timestamp key() const {
    if (reader_ == nullptr) return run_[row_].t;
    return decoded_ ? reader_->page_times()[row_] : entry().min_t;
  }
  double value() const {
    return reader_ == nullptr ? run_[row_].v : reader_->page_values()[row_];
  }
  /// The min_t of the page after this one; the Timestamp maximum at the
  /// last page.
  Timestamp next_page_min() const {
    return page_ + 1 < end_page_ ? reader_->directory()->pages[page_ + 1].min_t
                                 : std::numeric_limits<Timestamp>::max();
  }
  /// Decoded page points held: the current page once decoded, else 0.
  size_t page_points() const {
    return decoded_ ? reader_->page_times().size() : 0;
  }
  size_t remaining_bound() const;  ///< points it can still yield, at most

  /// Decodes the current page, checks its times are in order and moves to
  /// its first point in range; times()/values() are its in-range points.
  Status Decode();
  std::span<const Timestamp> times() const {
    return {reader_->page_times().data() + row_, row_end_ - row_};
  }
  std::span<const double> values() const {
    return {reader_->page_values().data() + row_, row_end_ - row_};
  }

  void Advance() {
    ++row_;
    if (reader_ != nullptr && row_ == row_end_) NextPage();
  }
  /// Moves past the current page without consuming its points. A page
  /// cursor closes its file once it is done.
  void NextPage() {
    ++page_;
    decoded_ = false;
    row_ = 0;
    row_end_ = 0;
    if (page_ == end_page_) reader_->CloseFile();
  }

  PageReader& reader() const { return *reader_; }

 private:
  PageReader* reader_ = nullptr;
  std::span<const TvPairDouble> run_;
  Timestamp t_min_ = 0;
  Timestamp t_max_ = 0;
  size_t page_ = 0;
  size_t end_page_ = 0;
  size_t row_ = 0;
  size_t row_end_ = 0;
  bool decoded_ = false;
};

/// The one k-way last-write-wins merge, which Query, AggregateFast and
/// compaction run with their own sink. Position in `cursors` is write
/// recency: equal timestamps pop by it, and the later one overwrites the
/// held-back pending point. A page that reaches the front undecoded is
/// *clean* when its max_t is below every other unfinished cursor's key
/// and its own next page's min_t, and its min_t above the pending point:
/// no other point can fall inside it. If `sink.Whole(w)` agrees, it goes
/// to `sink.Page(c, last)` whole (`last`: no point of any source follows
/// it). Every other page is decoded (`sink.Decoded(c)`) and its points
/// reach `sink.Point(t, v)` one by one.
template <typename Sink>
Status MergeSources(std::vector<MergeCursor>& cursors, Sink& sink) {
  const size_t k = cursors.size();
  if (k == 0) return Status::OK();
  LoserTree tree;
  // Exhausted cursors order last; equal timestamps order by position.
  tree.Init(k, [&cursors](size_t a, size_t b) {
    const bool da = cursors[a].done(), db = cursors[b].done();
    if (da != db) return !da;
    if (da) return a < b;
    const Timestamp ta = cursors[a].key(), tb = cursors[b].key();
    if (ta != tb) return ta < tb;
    return a < b;
  });

  // Hold back one point; a successor with the same timestamp (necessarily
  // from an equal-or-newer source, per the pop order) replaces it,
  // anything else sends it to the sink.
  bool have_pending = false;
  Timestamp pending_t = 0;
  double pending_v = 0.0;

  for (;;) {
    const size_t w = tree.winner();
    MergeCursor& c = cursors[w];
    if (c.done()) break;
    if (c.at_page_start()) {
      const PageEntry& e = c.entry();
      bool clean = (!have_pending || pending_t < e.min_t) &&
                   c.next_page_min() > e.max_t && sink.Whole(w);
      bool last = c.next_page_min() == std::numeric_limits<Timestamp>::max();
      for (size_t i = 0; clean && i < k; ++i) {
        if (i == w || cursors[i].done()) continue;
        last = false;
        clean = cursors[i].key() > e.max_t;
      }
      if (clean) {
        if (have_pending) RETURN_NOT_OK(sink.Point(pending_t, pending_v));
        have_pending = false;
        RETURN_NOT_OK(sink.Page(c, last));
        c.NextPage();
      } else {
        RETURN_NOT_OK(c.Decode());
        sink.Decoded(c);
        // A boundary page may hold no point of the range.
        if (c.times().empty()) c.NextPage();
      }
      tree.Replay();
      continue;
    }
    const Timestamp t = c.key();
    const double v = c.value();
    if (have_pending && pending_t == t) {
      pending_v = v;  // newer source (or later duplicate) shadows it
    } else {
      if (have_pending) RETURN_NOT_OK(sink.Point(pending_t, pending_v));
      pending_t = t;
      pending_v = v;
      have_pending = true;
    }
    c.Advance();
    tree.Replay();
  }
  if (have_pending) RETURN_NOT_OK(sink.Point(pending_t, pending_v));
  return Status::OK();
}

/// The points sink: replaces `out` with the merged points; a clean page
/// appends its in-range points, equal timestamps collapsed to the later.
Status MergePoints(std::vector<MergeCursor>& cursors,
                   std::vector<TvPairDouble>* out);

struct FoldTally {
  size_t pages_folded = 0;  ///< clean pages folded from their headers
  bool merged = false;      ///< a point came through the point merge
};

/// The stats sink: sets `*stats` to the aggregate of the merged points of
/// cursors clipped to [t_min, t_max]. A clean page inside the range with
/// usable statistics folds from its header unless it would supply the
/// first or last point, whose values only a decode gives; any other clean
/// page is decoded and folded like the points sink appends it.
Status MergeStats(std::vector<MergeCursor>& cursors, Timestamp t_min,
                  Timestamp t_max, RangeStats* stats, FoldTally* tally);

}  // namespace backsort

#endif  // BACKSORT_ENGINE_LWW_MERGE_H_
