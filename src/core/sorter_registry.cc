#include "core/sorter_registry.h"

namespace backsort {

std::string SorterName(SorterId id) {
  switch (id) {
    case SorterId::kBackward:
      return "Back";
    case SorterId::kQuick:
      return "Quick";
    case SorterId::kTim:
      return "Timsort";
    case SorterId::kPatience:
      return "Patience";
    case SorterId::kCk:
      return "CKSort";
    case SorterId::kY:
      return "YSort";
    case SorterId::kInsertion:
      return "Insertion";
    case SorterId::kMerge:
      return "Merge";
    case SorterId::kSmooth:
      return "Smooth";
    case SorterId::kStd:
      return "StdSort";
    case SorterId::kDualPivot:
      return "DualPivot";
    case SorterId::kRadix:
      return "Radix";
  }
  return "unknown";
}

bool SorterFromName(const std::string& name, SorterId* out) {
  for (SorterId id : AllSorters()) {
    if (SorterName(id) == name) {
      *out = id;
      return true;
    }
  }
  return false;
}

bool KeepsTieOrder(SorterId id, const BackwardSortOptions& options) {
  switch (id) {
    case SorterId::kBackward:
      return options.block_sorter != BackwardSortOptions::BlockSorter::kQuick;
    case SorterId::kTim:
    case SorterId::kInsertion:
    case SorterId::kMerge:
    case SorterId::kRadix:
      return true;
    case SorterId::kQuick:
    case SorterId::kPatience:
    case SorterId::kCk:
    case SorterId::kY:
    case SorterId::kSmooth:
    case SorterId::kStd:
    case SorterId::kDualPivot:
      return false;
  }
  return false;
}

std::vector<SorterId> PaperSorters() {
  return {SorterId::kBackward, SorterId::kQuick,    SorterId::kTim,
          SorterId::kPatience, SorterId::kCk,       SorterId::kY};
}

std::vector<SorterId> AllSorters() {
  return {SorterId::kBackward,  SorterId::kQuick,  SorterId::kTim,
          SorterId::kPatience,  SorterId::kCk,     SorterId::kY,
          SorterId::kInsertion, SorterId::kMerge,  SorterId::kSmooth,
          SorterId::kStd,       SorterId::kDualPivot, SorterId::kRadix};
}

}  // namespace backsort
