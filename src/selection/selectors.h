#ifndef HYTAP_SELECTION_SELECTORS_H_
#define HYTAP_SELECTION_SELECTORS_H_

#include <cstdint>
#include <vector>

#include "selection/cost_model.h"
#include "solver/branch_and_bound.h"
#include "workload/workload.h"

namespace hytap {

/// A column selection problem instance (paper §III).
struct SelectionProblem {
  const Workload* workload = nullptr;
  ScanCostParams params;
  /// DRAM budget A in bytes. Helpers accept the relative budget w instead.
  double budget_bytes = 0.0;
  /// Current allocation y (for reallocation costs, §III-D). Empty = no
  /// reallocation term (beta treated as 0).
  std::vector<uint8_t> current;
  /// Per-byte reallocation cost weight beta (>= 0).
  double beta = 0.0;
  /// Columns pinned in DRAM by the DBA (SLAs, primary keys; Fig. 2).
  std::vector<uint8_t> pinned;

  /// Budget from a relative share w of the total column bytes.
  static SelectionProblem FromRelativeBudget(const Workload& workload,
                                             ScanCostParams params, double w);
};

/// Result of a selection run.
struct SelectionResult {
  std::vector<uint8_t> in_dram;  // x
  double scan_cost = 0.0;        // F(x)
  double dram_bytes = 0.0;       // M(x)
  double objective = 0.0;        // F(x) + beta * moved bytes
  double solve_seconds = 0.0;    // wall time including cost-model build
  double model_seconds = 0.0;    // share spent building the cost model
  uint64_t solver_nodes = 0;     // B&B nodes (integer selector only)
  uint64_t solver_pruned = 0;    // B&B subtrees cut by the bound
  /// LP-relaxation lower bound on the objective (problem (4)); 0 when the
  /// selector does not compute one.
  double lp_bound = 0.0;
  /// Relative optimality gap (objective - lp_bound) / |lp_bound|, clamped
  /// >= 0. For a completed exact solve this is the LP integrality gap.
  double gap = 0.0;
  bool optimal = true;
};

/// The selection problem (2)-(3) reduced to its 0/1 knapsack core: the
/// non-pinned columns whose selection strictly improves the objective
/// (profit_i = -a_i * theta_i > 0) against capacity = budget minus pinned
/// bytes. Built once and shared by the exact selector and the anytime solver
/// portfolio so its walks and its exact search price solutions identically.
struct KnapsackView {
  std::vector<KnapsackItem> items;
  std::vector<size_t> item_columns;  // item k -> column index
  /// The items in the performance order (theta ascending, ties by column).
  std::vector<uint32_t> order;
  double budget_bytes = 0.0;
  double pinned_bytes = 0.0;
  double capacity = 0.0;  // budget_bytes minus pinned_bytes
  /// Pinned-only baseline allocation (size N). Objective of a take-vector:
  /// base_objective - sum of taken profits.
  std::vector<uint8_t> base;
  double base_objective = 0.0;
  /// Analytic Dantzig (fractional-relaxation) upper bound on the knapsack
  /// profit, i.e. base_objective - profit_upper_bound lower-bounds every
  /// feasible objective. Matches the SolveRelaxationSimplex optimum.
  double profit_upper_bound = 0.0;

  /// Expands an item take-vector (size items.size()) into a full column
  /// allocation with the pinned columns forced in.
  std::vector<uint8_t> Expand(const std::vector<uint8_t>& take) const;
  /// The take-vector of FillInOrder over `order`: Expand() of it is the
  /// allocation SelectExplicit(problem, filling) returns.
  std::vector<uint8_t> Fill(bool filling) const;
  /// LP lower bound on the objective.
  double ObjectiveLowerBound() const {
    return base_objective - profit_upper_bound;
  }
};

KnapsackView BuildKnapsackView(const SelectionProblem& problem,
                               const CostModel& model);

/// Exact integer optimum of problem (2)-(3) (with optional reallocation
/// term), via branch-and-bound. This is the Pareto-efficient frontier point
/// for budget A.
SelectionResult SelectIntegerOptimal(const SelectionProblem& problem,
                                     uint64_t max_nodes = 200'000'000);

/// Optimal solution of the continuous penalty problem (5)/(6) for a fixed
/// alpha, via the per-column threshold rule (Theorem 2 cases). Guaranteed
/// integral (Lemma 1) and Pareto-efficient (Theorem 1). Ignores the budget.
SelectionResult SelectContinuousPenalty(const SelectionProblem& problem,
                                        double alpha);

/// One point of the explicit (Schlosser) Pareto frontier.
struct FrontierPoint {
  uint32_t column;      // column added at this step (performance order o_i)
  double alpha;         // critical penalty at which the column enters DRAM
  double dram_bytes;    // cumulative M(x)
  double scan_cost;     // cumulative F(x)
  double objective;     // cumulative F(x) + beta * moves
};

/// The full explicit solution (Theorem 2): the performance order and the
/// cumulative Pareto-optimal prefix allocations, computed in
/// O(model build + N log N) without any solver.
struct ExplicitFrontier {
  std::vector<FrontierPoint> points;  // ascending DRAM usage
};

ExplicitFrontier ComputeExplicitFrontier(const SelectionProblem& problem);

/// The fill walk behind every explicit, greedy and heuristic allocation:
/// the pinned columns first (their bytes count against the budget), then
/// `order` (non-pinned column ids), placing each column while
/// used + a_i <= budget + 1e-9. A strict walk stops at the first column that
/// does not fit, which is the Pareto prefix of Theorem 2; a filling walk
/// skips it and keeps trying the later columns (Remark 2).
std::vector<uint8_t> FillInOrder(const SelectionProblem& problem,
                                 const std::vector<uint32_t>& order,
                                 bool filling);

/// Explicit solution for a budget (Theorem 2 + optional Remark-2 filling):
/// FillInOrder over the performance order o_i, the non-pinned columns with
/// theta_i < 0 sorted by theta_i ascending, ties by column id.
SelectionResult SelectExplicit(const SelectionProblem& problem,
                               bool filling = true);

/// Remark-3 greedy: repeatedly add the column maximizing additional
/// performance per additional DRAM used. For the separable linear cost model
/// the marginal gain per byte of column i is the constant -theta_i, and a
/// column skipped for space never fits again, so the greedy is the filling
/// walk of the performance order: SelectExplicit(problem, true).
SelectionResult SelectGreedyMarginal(const SelectionProblem& problem);

/// Solves the continuous penalty problem (5) through the dense simplex
/// (Lemma-1 validation path; small N only).
SelectionResult SelectContinuousSimplex(const SelectionProblem& problem,
                                        double alpha);

/// Solves the plain LP relaxation (4) s.t. (3) through the simplex; the
/// result may be fractional (at most one fractional column).
struct RelaxationResult {
  std::vector<double> x;
  double scan_cost = 0.0;
  double dram_bytes = 0.0;
  bool feasible = false;
};
RelaxationResult SolveRelaxationSimplex(const SelectionProblem& problem);

/// Finishes a raw allocation into a SelectionResult (cost bookkeeping).
SelectionResult FinishResult(const SelectionProblem& problem,
                             const CostModel& model,
                             std::vector<uint8_t> in_dram);

}  // namespace hytap

#endif  // HYTAP_SELECTION_SELECTORS_H_
