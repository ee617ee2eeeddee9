#include "selection/reallocation.h"

#include <algorithm>

#include "common/assert.h"
#include "selection/cost_model.h"
#include "solver/portfolio.h"

namespace hytap {

double BetaFromMigrationWindow(double move_ns_per_byte,
                               uint64_t amortization_windows) {
  HYTAP_ASSERT(move_ns_per_byte >= 0.0, "move cost must be non-negative");
  const double horizon = double(std::max<uint64_t>(1, amortization_windows));
  return move_ns_per_byte / horizon;
}

ReallocationResult SelectWithReallocation(const SelectionProblem& problem) {
  HYTAP_ASSERT(problem.workload != nullptr, "problem needs a workload");
  HYTAP_ASSERT(problem.current.size() == problem.workload->column_count(),
               "reallocation needs the current allocation y");
  HYTAP_ASSERT(problem.beta >= 0.0, "beta must be non-negative");

  ReallocationResult result;
  result.selection = SolverPortfolio().Solve(problem).selection;

  // F(y): price staying put under the same model. The move term is zero at
  // x = y, so the plain scan cost is the full objective of the status quo.
  CostModel model(*problem.workload, problem.params);
  result.current_cost = model.ScanCost(problem.current);

  const std::vector<double>& sizes = problem.workload->column_sizes;
  for (size_t c = 0; c < problem.current.size(); ++c) {
    const bool now = problem.current[c] != 0;
    const bool want =
        c < result.selection.in_dram.size() && result.selection.in_dram[c] != 0;
    if (now == want) continue;
    ++result.planned_moves;
    result.planned_move_bytes += sizes[c];
  }
  result.improvement = result.current_cost - result.selection.objective;
  result.improvement_pct =
      result.current_cost > 0.0
          ? 100.0 * result.improvement / result.current_cost
          : 0.0;
  return result;
}

}  // namespace hytap
