// Reproduces Figure 3: "Comparison of optimal integer and continuous
// solutions for BSEG table: different combinations of relative performance
// and data loaded in DRAM (cf. efficient frontier)."
//
// Expected shape (paper §III-B):
//  - ~78% of the data is evicted for free (never-filtered attributes);
//  - relative performance stays within 25% of optimum up to ~95% eviction;
//  - a sharp drop beyond ~95% when the dominant BELNR column no longer fits;
//  - continuous (penalty) solutions coincide with integer solutions on the
//    frontier.

#include <cstdio>

#include "bench/bench_util.h"
#include "selection/cost_model.h"
#include "selection/selectors.h"
#include "workload/enterprise.h"

using namespace hytap;

int main() {
  Workload workload = GenerateEnterpriseWorkload(BsegProfile(), /*seed=*/42);
  const ScanCostParams params{1.0, 100.0};
  CostModel model(workload, params);

  bench::PrintHeader("Figure 3: BSEG Pareto frontier (integer vs continuous)");
  std::printf("%8s %14s %14s %14s %12s\n", "w", "evicted [%]",
              "int rel.perf", "cont rel.perf", "identical");

  const double total = workload.TotalBytes();
  size_t frontier_matches = 0, points = 0;
  for (double w = 1.0; w >= 0.005; w *= 0.82) {
    auto problem = SelectionProblem::FromRelativeBudget(workload, params, w);
    SelectionResult integer = SelectIntegerOptimal(problem);
    // Continuous: the largest Pareto point (strict penalty-sweep prefix)
    // fitting the budget, per Theorem 1 / Remark 1.
    SelectionResult continuous = SelectExplicit(problem, /*filling=*/false);
    // Theorem 1 check: at the continuous solution's own memory usage
    // A := M(x(alpha)), the integer optimum achieves the same cost.
    SelectionProblem at_own_budget = problem;
    at_own_budget.budget_bytes = continuous.dram_bytes;
    SelectionResult integer_at_own = SelectIntegerOptimal(at_own_budget);
    const bool on_frontier =
        integer_at_own.scan_cost >= continuous.scan_cost * (1 - 1e-9);
    ++points;
    frontier_matches += on_frontier ? 1 : 0;
    std::printf("%8.3f %14.1f %14.3f %14.3f %12s\n", w,
                100.0 * (1.0 - integer.dram_bytes / total),
                model.RelativePerformance(integer.in_dram),
                model.RelativePerformance(continuous.in_dram),
                on_frontier ? "yes" : "dominated");
  }

  // Headline numbers.
  auto free_problem =
      SelectionProblem::FromRelativeBudget(workload, params, 1.0);
  SelectionResult free_eviction = SelectExplicit(free_problem);
  std::printf("\ninitial eviction rate (unused attributes only): %.1f%%"
              " at relative performance %.3f\n",
              100.0 * (1.0 - free_eviction.dram_bytes / total),
              model.RelativePerformance(free_eviction.in_dram));
  auto at95 = SelectExplicit(
      SelectionProblem::FromRelativeBudget(workload, params, 0.05));
  std::printf("at 95%% eviction: relative performance %.3f "
              "(paper: sequential accesses slowed by < 25%%)\n",
              model.RelativePerformance(at95.in_dram));
  auto at97 = SelectExplicit(
      SelectionProblem::FromRelativeBudget(workload, params, 0.03));
  std::printf("beyond the BELNR cliff (97%% eviction): %.3f "
              "(paper: sudden drop once BELNR is evicted)\n",
              model.RelativePerformance(at97.in_dram));
  std::printf("continuous solutions on the integer frontier: %zu / %zu "
              "budget points\n",
              frontier_matches, points);
  return 0;
}
