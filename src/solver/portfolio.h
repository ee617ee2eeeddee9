#ifndef HYTAP_SOLVER_PORTFOLIO_H_
#define HYTAP_SOLVER_PORTFOLIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "selection/selectors.h"

namespace hytap {

/// One point of a gap-vs-time curve: a solver found an improvement.
struct IncumbentEvent {
  std::string solver;
  double elapsed_seconds = 0.0;
  double objective = 0.0;  // the reporting solver's incumbent objective
  /// Relative gap of the *portfolio-wide* best incumbent at this instant vs
  /// the LP objective lower bound; monotonically non-increasing over the
  /// merged timeline by construction.
  double gap = 0.0;
};

struct PortfolioOptions {
  /// Wall-clock budget in milliseconds, model build included; <= 0 means
  /// unlimited (the exact search runs to completion, so the result matches
  /// the exact selector).
  double budget_ms = 0.0;
  /// B&B node-expansion workers on the shared pool; 0 = pool default.
  uint32_t workers = 0;

  /// The defaults with HYTAP_SOLVER_THREADS (unset: pool default) applied.
  static PortfolioOptions FromEnv();
};

struct PortfolioResult {
  /// The winner's placement with full cost bookkeeping (FinishResult).
  SelectionResult selection;
  std::string winner;
  double lp_bound = 0.0;  // LP lower bound on the objective
  double gap = 0.0;       // winner objective vs lp_bound, clamped >= 0
  bool deadline_hit = false;
  bool proved_optimal = false;
  double wall_seconds = 0.0;
  uint64_t nodes = 0;
  uint64_t pruned = 0;
  uint64_t incumbent_updates = 0;
  /// Merged gap-vs-time curve across all solvers, ordered by elapsed time.
  std::vector<IncumbentEvent> timeline;
};

/// Selection under a wall-clock deadline, with the optimality gap against
/// the LP relaxation bound. The strict and filling walks of the view's
/// performance order (the explicit Schlosser solution of Theorem 2 and the
/// Remark-2/3 greedy, the allocations of SelectExplicit(problem, false) and
/// SelectExplicit(problem, true)) are the first two incumbents; then the
/// exact parallel branch-and-bound runs on the calling thread, its
/// node-expansion lanes on ThreadPool::Global(), until it completes or the
/// deadline passes. The lowest objective wins; ties (within 1e-12 relative)
/// resolve exact > explicit > greedy. With an unlimited budget the winner is
/// the exact search's deterministic optimum, bit-identical to
/// SelectIntegerOptimal.
class SolverPortfolio {
 public:
  explicit SolverPortfolio(PortfolioOptions options);
  SolverPortfolio() : SolverPortfolio(PortfolioOptions::FromEnv()) {}

  PortfolioResult Solve(const SelectionProblem& problem);

  const PortfolioOptions& options() const { return options_; }

 private:
  PortfolioOptions options_;
};

}  // namespace hytap

#endif  // HYTAP_SOLVER_PORTFOLIO_H_
