#ifndef BACKSORT_CORE_BACKWARD_SORT_H_
#define BACKSORT_CORE_BACKWARD_SORT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sort/insertion_sort.h"
#include "sort/merge_sort.h"
#include "sort/quicksort.h"
#include "sort/sortable.h"
#include "sort/timsort.h"

namespace backsort {

/// Tuning knobs for Backward-Sort (Algorithm 1 of the paper).
struct BackwardSortOptions {
  /// L0 — the starting block size of the set-block-size loop. The paper
  /// fixes 4: large enough to avoid degenerating toward Insertion-Sort,
  /// small enough never to overshoot the optimum (Fig. 8b discussion).
  size_t initial_block_size = 4;

  /// Theta — the empirical interval-inversion-ratio threshold that stops
  /// the block-size doubling. The paper's fixed empirical choice is 0.04.
  double theta = 0.04;

  /// When non-zero, skips the set-block-size loop entirely and uses this
  /// block size — the manual-L mode of the Fig. 8b parameter-tuning sweep.
  size_t fixed_block_size = 0;

  /// Which algorithm sorts each block (Algorithm 1 line 11 "Quicksort is
  /// used in default and can be substituted"). kStable insertion-sorts
  /// 32-point runs and merges them bottom-up; with it (or kInsertion /
  /// kTim) Backward-Sort keeps equal timestamps in arrival order, since
  /// the backward merge and the overlap search already do. kQuick is the
  /// paper's choice and does not.
  enum class BlockSorter { kQuick, kInsertion, kTim, kStable };
  BlockSorter block_sorter = BlockSorter::kQuick;

  /// How the block size is selected when `fixed_block_size` is 0.
  ///  - kThetaDoubling: Algorithm 1 lines 1-8 (double L until the
  ///    empirical IIR drops below theta) — the paper's shipped strategy.
  ///  - kOverlapProportional: estimate the expected overlap Q via
  ///    Proposition 4 (E(Q) = sum_k tail(k) = sum_k E(alpha_k)) and set
  ///    L = eta * Q_hat per Proposition 5's optimum — the "future work"
  ///    estimator the paper sketches in Section IV-B3.
  enum class BlockSizeStrategy { kThetaDoubling, kOverlapProportional };
  BlockSizeStrategy strategy = BlockSizeStrategy::kThetaDoubling;

  /// Proportionality constant of kOverlapProportional (the eta of
  /// Proposition 5; L* = eta * Q at the optimum of g(L)).
  double eta = 4.0;
};

/// Observability counters filled by BackwardSort; used by the ablation
/// benches and by the property tests for Propositions 3 and 4.
struct BackwardSortStats {
  size_t chosen_block_size = 0;
  size_t block_count = 0;
  /// Iterations of the set-block-size while loop (P in Table I).
  size_t set_block_size_iterations = 0;
  /// Number of boundary pairs inspected by the empirical IIR estimator
  /// across all iterations — Proposition 3 bounds this by 2 n / L0.
  uint64_t iir_samples_scanned = 0;
  /// Sum over merged boundaries of the overlap length q (Q in Table I).
  uint64_t total_overlap = 0;
  size_t max_overlap = 0;
  /// Boundaries where the fast path (block max <= suffix head) applied.
  size_t merges_skipped = 0;
  size_t merges_performed = 0;
};

namespace core_internal {

/// Run length of the kStable block sorter's insertion pass.
inline constexpr size_t kStableRun = 32;

/// Sorts seq[lo, hi) with `which`. `scratch` is the merge buffer kStable
/// reuses across blocks.
template <typename Seq>
void SortBlock(Seq& seq, size_t lo, size_t hi,
               BackwardSortOptions::BlockSorter which,
               std::vector<typename Seq::Element>& scratch) {
  switch (which) {
    case BackwardSortOptions::BlockSorter::kQuick:
      QuickSortRange(seq, lo, hi);
      break;
    case BackwardSortOptions::BlockSorter::kInsertion:
      InsertionSortRange(seq, lo, hi);
      break;
    case BackwardSortOptions::BlockSorter::kTim: {
      // TimSorter works on whole sequences; wrap the range in a view.
      struct RangeView {
        using Element = typename Seq::Element;
        Seq* inner;
        size_t base;
        size_t len;
        size_t size() const { return len; }
        Timestamp TimeAt(size_t i) const { return inner->TimeAt(base + i); }
        Element Get(size_t i) const { return inner->Get(base + i); }
        void Set(size_t i, const Element& e) { inner->Set(base + i, e); }
        void Swap(size_t i, size_t j) { inner->Swap(base + i, base + j); }
        static Timestamp ElementTime(const Element& e) {
          return Seq::ElementTime(e);
        }
        OpCounters& counters() { return inner->counters(); }
      };
      RangeView view{&seq, lo, hi - lo};
      TimSort(view);
      break;
    }
    case BackwardSortOptions::BlockSorter::kStable:
      for (size_t r = lo; r < hi; r += kStableRun) {
        InsertionSortRange(seq, r, std::min(r + kStableRun, hi));
      }
      for (size_t width = kStableRun; width < hi - lo; width *= 2) {
        for (size_t left = lo; left + width < hi; left += 2 * width) {
          // Left-run points up to the right run's head are already in
          // place (ties stay left, so the order is stable); merge only the
          // rest, which on near-sorted input is the short overlap.
          const size_t mid = left + width;
          const Timestamp head = seq.TimeAt(mid);
          size_t cut_lo = left;
          size_t cut_hi = mid;
          while (cut_lo < cut_hi) {
            const size_t probe = cut_lo + (cut_hi - cut_lo) / 2;
            ++seq.counters().comparisons;
            if (seq.TimeAt(probe) <= head) {
              cut_lo = probe + 1;
            } else {
              cut_hi = probe;
            }
          }
          sort_internal::StraightMergeRanges(
              seq, cut_lo, mid, std::min(left + 2 * width, hi), scratch);
        }
      }
      break;
  }
}

}  // namespace core_internal

/// Chooses the block size per Algorithm 1 lines 1-8: starting from L0,
/// estimate the empirical IIR at stride L (Example 5's down-sampling) and
/// double L until the ratio falls below theta or L reaches n. Exposed
/// separately so tests can validate Proposition 3's scan bound.
template <typename Seq>
size_t ChooseBlockSize(const Seq& seq, const BackwardSortOptions& options,
                       BackwardSortStats* stats) {
  const size_t n = seq.size();
  size_t L = std::max<size_t>(options.initial_block_size, 1);
  while (L < n) {
    uint64_t samples = 0;
    uint64_t inverted = 0;
    for (size_t j = 0; j + L < n; j += L) {
      ++samples;
      if (seq.TimeAt(j) > seq.TimeAt(j + L)) ++inverted;
    }
    if (stats != nullptr) {
      ++stats->set_block_size_iterations;
      stats->iir_samples_scanned += samples;
    }
    const double alpha =
        samples == 0 ? 0.0
                     : static_cast<double>(inverted) /
                           static_cast<double>(samples);
    if (alpha < options.theta) break;
    L *= 2;  // updateBlockSizeByRatio, Eq. 15
  }
  return std::min(L, n);
}

/// Estimates the expected block overlap Q of Proposition 4 without knowing
/// the delay distribution: E(Q) = sum_{k>=0} tail_{delta_tau}(k) and
/// E(alpha_k) = tail(k) (Proposition 2), so Q_hat integrates the empirical
/// IIR curve sampled at exponentially spaced intervals. Total cost is O(n)
/// (a stride-k scan per sampled interval k).
template <typename Seq>
double EstimateOverlapQ(const Seq& seq, BackwardSortStats* stats = nullptr) {
  const size_t n = seq.size();
  if (n < 2) return 0.0;
  double q_hat = 0.0;
  double alpha1 = 0.0;
  double alpha2 = 0.0;
  size_t prev_k = 0;
  for (size_t k = 1; k < n; k *= 2) {
    uint64_t samples = 0;
    uint64_t inverted = 0;
    for (size_t j = 0; j + k < n; j += k) {
      ++samples;
      if (seq.TimeAt(j) > seq.TimeAt(j + k)) ++inverted;
    }
    if (stats != nullptr) stats->iir_samples_scanned += samples;
    if (samples == 0) break;
    const double alpha =
        static_cast<double>(inverted) / static_cast<double>(samples);
    if (k == 1) alpha1 = alpha;
    if (k == 2) alpha2 = alpha;
    // alpha approximates tail(k); treat the tail as constant over the gap
    // (prev_k, k] — a step integration of sum_{j in gap} tail(j).
    q_hat += alpha * static_cast<double>(k - prev_k);
    if (alpha == 0.0) break;  // tail is monotone; nothing further to add
    prev_k = k;
  }
  // The k = 0 term tail(0) = P(delta_tau > 0) is not observable from
  // inversions (an interval-0 inversion is undefined). Extrapolate the
  // monotone tail linearly back from alpha_1, alpha_2, capped by the
  // symmetry bound P(delta_tau > 0) <= 1/2 (Proposition 1).
  const double tail0 =
      std::min(0.5, std::max(alpha1, 2.0 * alpha1 - alpha2));
  return q_hat + tail0;
}

/// Chooses L = clamp(eta * Q_hat) per Proposition 5 (optimal L is
/// proportional to the expected overlap).
template <typename Seq>
size_t ChooseBlockSizeByOverlap(const Seq& seq,
                                const BackwardSortOptions& options,
                                BackwardSortStats* stats) {
  const size_t n = seq.size();
  const double q_hat = EstimateOverlapQ(seq, stats);
  if (stats != nullptr) ++stats->set_block_size_iterations;
  const double target = options.eta * q_hat;
  size_t L = std::max<size_t>(options.initial_block_size, 1);
  while (L < n && static_cast<double>(L) < target) {
    L *= 2;
  }
  return std::min(L, n);
}

/// Backward-Sort (Algorithm 1): set block size, sort each block locally,
/// then merge blocks back-to-front touching only the overlapping prefix of
/// the already-sorted suffix. With L = 1 it degenerates to Insertion-Sort;
/// with L = n to plain (middle-pivot) Quicksort (Proposition 5 / Fig. 6).
template <typename Seq>
void BackwardSort(Seq& seq, const BackwardSortOptions& options = {},
                  BackwardSortStats* stats = nullptr) {
  using Element = typename Seq::Element;
  const size_t n = seq.size();
  if (n < 2) return;

  // --- Part 1: set block size -------------------------------------------
  size_t L;
  if (options.fixed_block_size > 0) {
    L = std::min(options.fixed_block_size, n);
  } else if (options.strategy ==
             BackwardSortOptions::BlockSizeStrategy::kOverlapProportional) {
    L = ChooseBlockSizeByOverlap(seq, options, stats);
  } else {
    L = ChooseBlockSize(seq, options, stats);
  }
  if (L < 1) L = 1;

  // --- Part 2: sort by blocks -------------------------------------------
  // B = floor(n / L) blocks; the final block absorbs the n % L remainder so
  // every point belongs to exactly one block.
  const size_t B = std::max<size_t>(n / L, 1);
  if (stats != nullptr) {
    stats->chosen_block_size = L;
    stats->block_count = B;
  }
  std::vector<Element> scratch;
  for (size_t b = 0; b < B; ++b) {
    const size_t lo = b * L;
    const size_t hi = (b + 1 == B) ? n : (b + 1) * L;
    core_internal::SortBlock(seq, lo, hi, options.block_sorter, scratch);
  }
  if (B == 1) return;

  // --- Part 3: backward merge -------------------------------------------
  for (size_t b = B - 1; b-- > 0;) {
    const size_t lo = b * L;
    const size_t block_end = (b + 1) * L;
    const Timestamp block_max = seq.TimeAt(block_end - 1);
    // Fast path: the entire block already precedes the sorted suffix.
    ++seq.counters().comparisons;
    if (block_max <= seq.TimeAt(block_end)) {
      if (stats != nullptr) ++stats->merges_skipped;
      continue;
    }
    // findOverlappedBlock: binary-search the sorted suffix for the first
    // point >= block_max; everything before it overlaps the block. The
    // search may land inside any later block (k in Algorithm 1 line 14).
    size_t q_lo = block_end;
    size_t q_hi = n;
    while (q_lo < q_hi) {
      const size_t mid = q_lo + (q_hi - q_lo) / 2;
      ++seq.counters().comparisons;
      if (seq.TimeAt(mid) < block_max) {
        q_lo = mid + 1;
      } else {
        q_hi = mid;
      }
    }
    const size_t q = q_lo - block_end;  // overlap length
    if (stats != nullptr) {
      ++stats->merges_performed;
      stats->total_overlap += q;
      stats->max_overlap = std::max(stats->max_overlap, q);
    }
    // BackwardMerge: move the q overlapping suffix points into scratch,
    // then merge block and scratch from the right end so every point lands
    // in its final slot with at most one move (overlap points: two).
    scratch.clear();
    scratch.reserve(q);
    for (size_t i = block_end; i < block_end + q; ++i) {
      scratch.push_back(seq.Get(i));
      ++seq.counters().moves;
    }
    sort_internal::NoteScratchIfSupported(seq, scratch.size());
    ptrdiff_t a = static_cast<ptrdiff_t>(block_end) - 1;
    ptrdiff_t s = static_cast<ptrdiff_t>(q) - 1;
    ptrdiff_t w = static_cast<ptrdiff_t>(block_end + q) - 1;
    const ptrdiff_t a_begin = static_cast<ptrdiff_t>(lo);
    while (a >= a_begin && s >= 0) {
      ++seq.counters().comparisons;
      if (seq.TimeAt(static_cast<size_t>(a)) >
          Seq::ElementTime(scratch[static_cast<size_t>(s)])) {
        seq.Set(static_cast<size_t>(w--), seq.Get(static_cast<size_t>(a--)));
      } else {
        seq.Set(static_cast<size_t>(w--), scratch[static_cast<size_t>(s--)]);
      }
    }
    while (s >= 0) {
      seq.Set(static_cast<size_t>(w--), scratch[static_cast<size_t>(s--)]);
    }
    // Block points left of `a` are already in place — the backward move
    // economy of Example 3.
  }
}

}  // namespace backsort

#endif  // BACKSORT_CORE_BACKWARD_SORT_H_
