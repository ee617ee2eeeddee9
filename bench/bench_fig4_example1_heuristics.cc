// Reproduces Figure 4: "Example 1: admissible combinations of estimated
// runtime and DRAM budget for N = 50 columns and Q = 500 queries" — integer
// optimum, continuous solutions, and heuristics H1-H3.
//
// Expected shape: the integer solutions form the efficient frontier, the
// continuous solutions lie on it, and the heuristics are up to ~3x worse
// depending on the budget.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "selection/heuristics.h"
#include "selection/selectors.h"
#include "workload/example1.h"

using namespace hytap;

int main() {
  Example1Params gen;  // N = 50, Q = 500, the paper's setting
  Workload workload = GenerateExample1(gen);
  const ScanCostParams params{1.0, 100.0};
  CostModel model(workload, params);

  bench::PrintHeader(
      "Figure 4: estimated runtime vs DRAM budget (lower is better)");
  std::printf("%6s %12s %12s %12s %12s %12s\n", "w", "integer", "continuous",
              "H1", "H2", "H3");

  double worst_gap = 0.0;
  double worst_gap_w = 0.0;
  for (int step = 1; step <= 20; ++step) {
    const double w = std::min(1.0, 0.05 * step);
    auto problem = SelectionProblem::FromRelativeBudget(workload, params, w);
    const double integer = SelectIntegerOptimal(problem).scan_cost;
    const double continuous =
        SelectExplicit(problem, /*filling=*/false).scan_cost;
    const double h1 =
        SelectHeuristic(problem, HeuristicKind::kH1Frequency).scan_cost;
    const double h2 =
        SelectHeuristic(problem, HeuristicKind::kH2Selectivity).scan_cost;
    const double h3 = SelectHeuristic(
        problem, HeuristicKind::kH3SelectivityPerFreq).scan_cost;
    std::printf("%6.2f %12.3g %12.3g %12.3g %12.3g %12.3g\n", w, integer,
                continuous, h1, h2, h3);
    const double best_heuristic = std::min({h1, h2, h3});
    const double gap = best_heuristic / integer;
    if (gap > worst_gap) {
      worst_gap = gap;
      worst_gap_w = w;
    }
  }
  std::printf("\nlargest optimum-vs-best-heuristic gap: %.2fx at w = %.2f "
              "(paper: up to 3x better than heuristics)\n",
              worst_gap, worst_gap_w);

  // Gap of each heuristic at a representative mid budget.
  auto problem = SelectionProblem::FromRelativeBudget(workload, params, 0.3);
  const double integer = SelectIntegerOptimal(problem).scan_cost;
  std::printf("at w = 0.30: H1 %.2fx, H2 %.2fx, H3 %.2fx of optimal\n",
              SelectHeuristic(problem, HeuristicKind::kH1Frequency)
                      .scan_cost / integer,
              SelectHeuristic(problem, HeuristicKind::kH2Selectivity)
                      .scan_cost / integer,
              SelectHeuristic(problem, HeuristicKind::kH3SelectivityPerFreq)
                      .scan_cost / integer);
  return 0;
}
