#ifndef BACKSORT_CORE_SORTER_REGISTRY_H_
#define BACKSORT_CORE_SORTER_REGISTRY_H_

#include <string>
#include <vector>

#include "core/backward_sort.h"
#include "sort/ck_sort.h"
#include "sort/dual_pivot_quicksort.h"
#include "sort/insertion_sort.h"
#include "sort/merge_sort.h"
#include "sort/patience_sort.h"
#include "sort/quicksort.h"
#include "sort/radix_sort.h"
#include "sort/smoothsort.h"
#include "sort/sortable.h"
#include "sort/std_sort.h"
#include "sort/timsort.h"
#include "sort/y_sort.h"

namespace backsort {

/// Every sorting algorithm the evaluation compares. The first six are the
/// algorithms benchmarked in the paper (Section VI-A1); the rest are extra
/// reference points.
enum class SorterId {
  kBackward,
  kQuick,
  kTim,
  kPatience,
  kCk,
  kY,
  kInsertion,
  kMerge,
  kSmooth,
  kStd,
  kDualPivot,
  kRadix,
};

/// Display name matching the paper's figure legends ("Back", "Quick", ...).
std::string SorterName(SorterId id);

/// Reverse lookup by display name (case-sensitive). Returns false for
/// unknown names. Used by CLI tools.
bool SorterFromName(const std::string& name, SorterId* out);

/// The six algorithms of the paper's comparison figures, in legend order.
std::vector<SorterId> PaperSorters();

/// All registered sorters.
std::vector<SorterId> AllSorters();

/// True iff `id` (with `options`, for kBackward) always keeps equal
/// timestamps in arrival order: Timsort, Insertion, Merge, Radix, and
/// Backward with any block sorter but kQuick. The engine's last-write-wins
/// dedup relies on this order; sort_algorithms_test checks every claim.
bool KeepsTieOrder(SorterId id, const BackwardSortOptions& options = {});

/// Dispatches to the chosen algorithm. `options` only affects kBackward.
template <typename Seq>
void SortWith(SorterId id, Seq& seq,
              const BackwardSortOptions& options = {},
              BackwardSortStats* stats = nullptr) {
  switch (id) {
    case SorterId::kBackward:
      BackwardSort(seq, options, stats);
      break;
    case SorterId::kQuick:
      QuickSort(seq);
      break;
    case SorterId::kTim:
      TimSort(seq);
      break;
    case SorterId::kPatience:
      PatienceSort(seq);
      break;
    case SorterId::kCk:
      CkSort(seq);
      break;
    case SorterId::kY:
      YSort(seq);
      break;
    case SorterId::kInsertion:
      InsertionSort(seq);
      break;
    case SorterId::kMerge:
      MergeSort(seq);
      break;
    case SorterId::kSmooth:
      SmoothSort(seq);
      break;
    case SorterId::kStd:
      StdSort(seq);
      break;
    case SorterId::kDualPivot:
      DualPivotQuickSort(seq);
      break;
    case SorterId::kRadix:
      RadixSort(seq);
      break;
  }
}

}  // namespace backsort

#endif  // BACKSORT_CORE_SORTER_REGISTRY_H_
