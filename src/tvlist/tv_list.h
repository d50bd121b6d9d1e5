#ifndef BACKSORT_TVLIST_TV_LIST_H_
#define BACKSORT_TVLIST_TV_LIST_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/arena.h"
#include "common/counters.h"
#include "common/types.h"

namespace backsort {

/// TVList — the in-memory buffer of one sensor's chunk in a memtable,
/// replicated from Apache IoTDB (Section V-B of the paper): timestamps and
/// values are stored in parallel lists of fixed-size arrays (List<Array>,
/// default array size 32), a deque-like compromise between per-point
/// allocation and one huge buffer. Points are appended in arrival order;
/// sorting by timestamp happens lazily at flush or query time through a
/// pluggable sorting algorithm. The engine sorts a flat copy taken with
/// AppendRangeTo; TVListSortable sorts the list in place, as IoTDB does,
/// for the algorithm benches.
///
/// Arrays come from the optional Arena when one is supplied (the memtable
/// path: every list of one memtable shares the memtable's arena and the
/// whole table frees wholesale at retire) or from the heap otherwise (the
/// algorithm benches and tests). An arena-backed list must not outlive its
/// arena; it never frees individual arrays.
template <typename V>
class TVList {
 public:
  static constexpr size_t kDefaultArraySize = 32;

  explicit TVList(size_t array_size = kDefaultArraySize,
                  Arena* arena = nullptr)
      : array_size_(array_size == 0 ? kDefaultArraySize : array_size),
        arena_(arena) {}

  // Movable, not copyable: a TVList owns its array chain, and accidental
  // copies of multi-megabyte buffers should be spelled out via Clone().
  TVList(TVList&& other) noexcept { MoveFrom(other); }
  TVList& operator=(TVList&& other) noexcept {
    if (this != &other) {
      ReleaseArrays();
      MoveFrom(other);
    }
    return *this;
  }
  TVList(const TVList&) = delete;
  TVList& operator=(const TVList&) = delete;

  ~TVList() { ReleaseArrays(); }

  /// Appends one point in arrival order.
  void Put(Timestamp t, const V& v) {
    const size_t arr = size_ / array_size_;
    const size_t off = size_ % array_size_;
    if (arr == time_arrays_.size()) PushArrays();
    time_arrays_[arr][off] = t;
    value_arrays_[arr][off] = v;
    if (size_ > 0 && t < max_time_) {
      sorted_ = false;
    }
    if (size_ == 0 || t > max_time_) max_time_ = t;
    if (size_ == 0 || t < min_time_) min_time_ = t;
    ++size_;
  }

  /// Appends `n` points in arrival order — semantically `n` calls to Put,
  /// but copied array-chunk by array-chunk so the per-point index math and
  /// bookkeeping branches are hoisted out of the loop. The resulting list
  /// state (points, size, sorted flag, min/max times, array chain shape) is
  /// bit-identical to the per-point path; tvlist_test pins that down.
  void AppendN(const TvPair<V>* points, size_t n) {
    if (n == 0) return;
    size_t size = size_;
    bool sorted = sorted_;
    Timestamp min_t = min_time_;
    Timestamp max_t = max_time_;
    size_t i = 0;
    while (i < n) {
      const size_t arr = size / array_size_;
      const size_t off = size % array_size_;
      if (arr == time_arrays_.size()) PushArrays();
      Timestamp* tdst = time_arrays_[arr] + off;
      V* vdst = value_arrays_[arr] + off;
      const size_t take = std::min(array_size_ - off, n - i);
      for (size_t k = 0; k < take; ++k) {
        const Timestamp t = points[i + k].t;
        tdst[k] = t;
        vdst[k] = points[i + k].v;
        if (size > 0 && t < max_t) sorted = false;
        if (size == 0 || t > max_t) max_t = t;
        if (size == 0 || t < min_t) min_t = t;
        ++size;
      }
      i += take;
    }
    size_ = size;
    sorted_ = sorted;
    min_time_ = min_t;
    max_time_ = max_t;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Timestamp TimeAt(size_t i) const {
    return time_arrays_[i / array_size_][i % array_size_];
  }
  const V& ValueAt(size_t i) const {
    return value_arrays_[i / array_size_][i % array_size_];
  }

  void SetPoint(size_t i, Timestamp t, const V& v) {
    time_arrays_[i / array_size_][i % array_size_] = t;
    value_arrays_[i / array_size_][i % array_size_] = v;
  }

  /// Appends the points with t_min <= t <= t_max to `out`, in arrival
  /// order — the engine's copy-out for flush and query. Walks the arrays
  /// directly instead of paying TimeAt's divide per point; a range that
  /// covers the whole list skips the per-point filter.
  void AppendRangeTo(Timestamp t_min, Timestamp t_max,
                     std::vector<TvPair<V>>* out) const {
    if (size_ == 0 || max_time_ < t_min || min_time_ > t_max) return;
    const bool whole = t_min <= min_time_ && max_time_ <= t_max;
    size_t w = out->size();
    if (whole) {
      out->resize(w + size_);
    } else {
      out->reserve(w + size_);
    }
    for (size_t arr = 0, base = 0; base < size_; ++arr, base += array_size_) {
      const Timestamp* ts = time_arrays_[arr];
      const V* vs = value_arrays_[arr];
      const size_t take = std::min(array_size_, size_ - base);
      if (whole) {
        TvPair<V>* dst = out->data() + w;
        for (size_t k = 0; k < take; ++k) dst[k] = {ts[k], vs[k]};
        w += take;
      } else {
        for (size_t k = 0; k < take; ++k) {
          if (ts[k] >= t_min && ts[k] <= t_max) out->push_back({ts[k], vs[k]});
        }
      }
    }
  }

  /// True while every append so far has been in non-decreasing time order;
  /// a sorted list skips the sort step entirely at flush/query.
  bool sorted() const { return sorted_; }

  /// Smallest / largest timestamp ingested so far (valid when non-empty).
  Timestamp min_time() const { return min_time_; }
  Timestamp max_time() const { return max_time_; }

  size_t array_size() const { return array_size_; }

  /// Approximate heap footprint, for memtable flush accounting: the array
  /// payload only (chain-pointer vectors are counted by ChainBytes, arena
  /// block overhead by the arena itself).
  size_t MemoryBytes() const {
    return time_arrays_.size() * array_size_ * (sizeof(Timestamp) + sizeof(V));
  }

  /// Heap bytes of the chain-pointer vectors themselves — the only part of
  /// an arena-backed list that still lives on the general heap. The
  /// memtable's exact accounting sums this per chunk on top of the arena.
  size_t ChainBytes() const {
    return time_arrays_.capacity() * sizeof(Timestamp*) +
           value_arrays_.capacity() * sizeof(V*);
  }

  /// Deep copy (explicit, see copy-constructor note above). The copy is
  /// heap-backed regardless of the source's arena.
  TVList Clone() const {
    TVList out(array_size_);
    for (size_t i = 0; i < size_; ++i) {
      out.Put(TimeAt(i), ValueAt(i));
    }
    out.sorted_ = sorted_;
    return out;
  }

  void Clear() {
    ReleaseArrays();
    size_ = 0;
    sorted_ = true;
    min_time_ = 0;
    max_time_ = 0;
  }

 private:
  void PushArrays() {
    if (arena_ != nullptr) {
      time_arrays_.push_back(arena_->AllocateArray<Timestamp>(array_size_));
      value_arrays_.push_back(arena_->AllocateArray<V>(array_size_));
    } else {
      time_arrays_.push_back(new Timestamp[array_size_]);
      value_arrays_.push_back(new V[array_size_]);
    }
  }

  /// Frees heap arrays (arena arrays are the arena's to free) and drops
  /// the chains.
  void ReleaseArrays() {
    if (arena_ == nullptr) {
      for (Timestamp* a : time_arrays_) delete[] a;
      for (V* a : value_arrays_) delete[] a;
    }
    time_arrays_.clear();
    value_arrays_.clear();
  }

  /// Move helper: steals other's chains and neuters it so its destructor
  /// frees nothing.
  void MoveFrom(TVList& other) {
    array_size_ = other.array_size_;
    arena_ = other.arena_;
    time_arrays_ = std::move(other.time_arrays_);
    value_arrays_ = std::move(other.value_arrays_);
    size_ = other.size_;
    sorted_ = other.sorted_;
    min_time_ = other.min_time_;
    max_time_ = other.max_time_;
    other.time_arrays_.clear();
    other.value_arrays_.clear();
    other.size_ = 0;
    other.sorted_ = true;
  }

  size_t array_size_ = kDefaultArraySize;
  Arena* arena_ = nullptr;
  std::vector<Timestamp*> time_arrays_;
  std::vector<V*> value_arrays_;
  size_t size_ = 0;
  bool sorted_ = true;
  Timestamp min_time_ = 0;
  Timestamp max_time_ = 0;
};

using IntTVList = TVList<int32_t>;      // the paper's IntTVList: <long,int>
using LongTVList = TVList<int64_t>;
using FloatTVList = TVList<float>;
using DoubleTVList = TVList<double>;
using BooleanTVList = TVList<uint8_t>;

/// Sortable-sequence adapter over a TVList, giving the sort algorithms the
/// same interface they have over flat vectors. Moving a point here touches
/// both the T chain and the V chain — the "cost of moves (TV pairs) is
/// higher in IoTDB than in general arrays" effect the paper highlights when
/// explaining Patience Sort's instability.
template <typename V>
class TVListSortable {
 public:
  using Element = TvPair<V>;

  explicit TVListSortable(TVList<V>& list) : list_(&list) {}

  size_t size() const { return list_->size(); }
  Timestamp TimeAt(size_t i) const { return list_->TimeAt(i); }

  Element Get(size_t i) const {
    return Element{list_->TimeAt(i), list_->ValueAt(i)};
  }

  void Set(size_t i, const Element& e) {
    list_->SetPoint(i, e.t, e.v);
    ++counters_.moves;
  }

  void Swap(size_t i, size_t j) {
    const Element a = Get(i);
    const Element b = Get(j);
    list_->SetPoint(i, b.t, b.v);
    list_->SetPoint(j, a.t, a.v);
    ++counters_.swaps;
    counters_.moves += 3;
  }

  static Timestamp ElementTime(const Element& e) { return e.t; }

  OpCounters& counters() { return counters_; }
  const OpCounters& counters() const { return counters_; }

  void NoteScratch(size_t n) {
    if (n > counters_.peak_scratch) counters_.peak_scratch = n;
  }

 private:
  TVList<V>* list_;
  OpCounters counters_;
};

}  // namespace backsort

#endif  // BACKSORT_TVLIST_TV_LIST_H_
