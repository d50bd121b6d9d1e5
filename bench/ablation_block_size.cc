// Ablation benches for the design choices DESIGN.md calls out:
//  - theta sweep: how the IIR threshold moves the auto-selected block size
//    and the resulting sort time;
//  - L0 sweep: sensitivity to the initial block size (paper fixes 4);
//  - block-sorter substitution (Algorithm 1 line 11);
//  - degenerate endpoints L=1 (Insertion) and L=N (Quicksort) vs auto.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace backsort::bench {
namespace {

void ThetaSweep(const IntTVList& list, size_t repeats) {
  PrintTitle("Ablation: theta sweep (AbsNormal(1,10))");
  PrintHeader("theta", {"chosen L", "time (ms)"});
  for (double theta : {0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32}) {
    BackwardSortOptions options;
    options.theta = theta;
    IntTVList copy = list.Clone();
    TVListSortable<int32_t> seq(copy);
    BackwardSortStats stats;
    BackwardSort(seq, options, &stats);
    const double ms = TimeSortTvListMs(SorterId::kBackward, list, repeats,
                                       options);
    char label[32];
    std::snprintf(label, sizeof(label), "%.3f", theta);
    PrintRow(label, {static_cast<double>(stats.chosen_block_size), ms});
  }
}

void L0Sweep(const IntTVList& list, size_t repeats) {
  PrintTitle("Ablation: initial block size L0 sweep (AbsNormal(1,10))");
  PrintHeader("L0", {"chosen L", "time (ms)"});
  for (size_t l0 : {1, 2, 4, 8, 16, 64, 256, 1024}) {
    BackwardSortOptions options;
    options.initial_block_size = l0;
    IntTVList copy = list.Clone();
    TVListSortable<int32_t> seq(copy);
    BackwardSortStats stats;
    BackwardSort(seq, options, &stats);
    const double ms = TimeSortTvListMs(SorterId::kBackward, list, repeats,
                                       options);
    PrintRow(std::to_string(l0),
             {static_cast<double>(stats.chosen_block_size), ms});
  }
}

void BlockSorterSweep(const IntTVList& list, size_t repeats) {
  PrintTitle("Ablation: block-local sorter substitution (AbsNormal(1,10))");
  PrintHeader("block sorter", {"time (ms)"});
  const std::pair<const char*, BackwardSortOptions::BlockSorter> variants[] = {
      {"Quicksort", BackwardSortOptions::BlockSorter::kQuick},
      {"Insertion", BackwardSortOptions::BlockSorter::kInsertion},
      {"Timsort", BackwardSortOptions::BlockSorter::kTim},
      {"Stable", BackwardSortOptions::BlockSorter::kStable},
  };
  for (const auto& [name, which] : variants) {
    BackwardSortOptions options;
    options.block_sorter = which;
    PrintRow(name, {TimeSortTvListMs(SorterId::kBackward, list, repeats,
                                     options)});
  }
}

void Endpoints(const IntTVList& list, size_t repeats) {
  PrintTitle("Ablation: degenerate endpoints (Proposition 5 / Figure 6)");
  PrintHeader("variant", {"time (ms)"});
  {
    BackwardSortOptions options;
    options.fixed_block_size = list.size();
    PrintRow("L=N (Quicksort)", {TimeSortTvListMs(SorterId::kBackward, list,
                                                  repeats, options)});
  }
  {
    // L=1 insertion-like behavior is quadratic; use a small prefix so the
    // bench stays bounded while still showing the blow-up per point.
    IntTVList small;
    const size_t cap = std::min<size_t>(list.size(), 50'000);
    for (size_t i = 0; i < cap; ++i) small.Put(list.TimeAt(i), 0);
    BackwardSortOptions options;
    options.fixed_block_size = 1;
    options.block_sorter = BackwardSortOptions::BlockSorter::kInsertion;
    const double ms = TimeSortTvListMs(SorterId::kBackward, small, 1, options);
    std::printf("%-22s %12.3f   (on %zu points only)\n", "L=1 (Insertion)",
                ms, cap);
  }
  PrintRow("auto", {TimeSortTvListMs(SorterId::kBackward, list, repeats)});
}

void StrategySweep(size_t n, size_t repeats) {
  PrintTitle("Ablation: block-size strategy (theta-doubling vs Prop.4/5 "
             "overlap estimate)");
  PrintHeader("workload", {"theta L", "theta ms", "overlap L", "overlap ms"});
  struct Case {
    std::string name;
    std::unique_ptr<DelayDistribution> delay;
  };
  std::vector<Case> cases;
  cases.push_back({"AbsNormal(1,1)", std::make_unique<AbsNormalDelay>(1, 1)});
  cases.push_back({"AbsNormal(1,30)",
                   std::make_unique<AbsNormalDelay>(1, 30)});
  cases.push_back({"LogNormal(1,2)",
                   std::make_unique<LogNormalDelay>(1, 2)});
  cases.push_back({"LogNormal(4,2)",
                   std::make_unique<LogNormalDelay>(4, 2)});
  for (const Case& c : cases) {
    Rng rng(32);
    const IntTVList list = MakeTvList(n, *c.delay, rng);
    std::vector<double> row;
    for (auto strategy :
         {BackwardSortOptions::BlockSizeStrategy::kThetaDoubling,
          BackwardSortOptions::BlockSizeStrategy::kOverlapProportional}) {
      BackwardSortOptions options;
      options.strategy = strategy;
      IntTVList copy = list.Clone();
      TVListSortable<int32_t> seq(copy);
      BackwardSortStats stats;
      BackwardSort(seq, options, &stats);
      row.push_back(static_cast<double>(stats.chosen_block_size));
      row.push_back(TimeSortTvListMs(SorterId::kBackward, list, repeats,
                                     options));
    }
    PrintRow(c.name, row);
  }
}

void Run() {
  const size_t n = EnvSize("BACKSORT_POINTS", 1'000'000);
  const size_t repeats = EnvSize("BACKSORT_REPEATS", 3);
  Rng rng(31);
  AbsNormalDelay delay(1, 10);
  const IntTVList list = MakeTvList(n, delay, rng);
  ThetaSweep(list, repeats);
  L0Sweep(list, repeats);
  BlockSorterSweep(list, repeats);
  Endpoints(list, repeats);
  StrategySweep(n, repeats);
}

}  // namespace
}  // namespace backsort::bench

int main() {
  backsort::bench::Run();
  return 0;
}
