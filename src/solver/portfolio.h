#ifndef HYTAP_SOLVER_PORTFOLIO_H_
#define HYTAP_SOLVER_PORTFOLIO_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "selection/selectors.h"

namespace hytap {

/// A solver's best placement so far, snapshotted at any time mid-solve.
struct SolverIncumbent {
  bool valid = false;
  std::vector<uint8_t> take;     // over the KnapsackView items
  double profit = 0.0;           // knapsack profit of `take`
  double objective = 0.0;        // view.base_objective - profit
  double elapsed_seconds = 0.0;  // since StartSolving()
};

/// One point of a gap-vs-time curve: a solver published an improvement.
struct IncumbentEvent {
  std::string solver;
  double elapsed_seconds = 0.0;
  double objective = 0.0;  // the publishing solver's incumbent objective
  /// Relative gap of the *portfolio-wide* best incumbent at this instant vs
  /// the LP objective lower bound; monotonically non-increasing over the
  /// merged timeline by construction.
  double gap = 0.0;
};

/// Base class of the solvers raced by the portfolio — the start / stop /
/// incumbent-snapshot idiom: StartSolving() launches Solve() on a dedicated
/// control thread, StopSolving() requests cancellation and joins, and
/// GetIncumbent() returns the best placement found so far at any point in
/// between. Every published incumbent is a feasible placement, so stopping a
/// solver mid-search always leaves a valid (if suboptimal) answer.
///
/// Solvers price candidates through a shared KnapsackView, so objectives are
/// directly comparable across algorithms. The view must outlive the solver.
class PlacementSolver {
 public:
  PlacementSolver(std::string name, const KnapsackView* view);
  virtual ~PlacementSolver();

  PlacementSolver(const PlacementSolver&) = delete;
  PlacementSolver& operator=(const PlacementSolver&) = delete;

  const std::string& name() const { return name_; }
  void StartSolving();
  /// Requests cancellation and joins the control thread. Idempotent.
  void StopSolving();
  /// Joins without requesting cancellation (run-to-completion mode).
  void Join();
  bool Finished() const { return finished_.load(std::memory_order_acquire); }
  /// True when the solver completed and proved its incumbent optimal.
  bool ProvedOptimal() const {
    return proved_optimal_.load(std::memory_order_acquire);
  }
  SolverIncumbent GetIncumbent() const;
  std::vector<IncumbentEvent> TakeTimeline();
  uint64_t incumbent_updates() const {
    return updates_.load(std::memory_order_relaxed);
  }
  virtual uint64_t nodes() const { return 0; }
  virtual uint64_t pruned() const { return 0; }

 protected:
  /// Runs on the control thread and Publish()es improvements as it goes; a
  /// search that can outlast a deadline polls `stop_`.
  virtual void Solve() = 0;

  const KnapsackView& view() const { return *view_; }
  /// Installs `take` as the incumbent if its profit strictly improves.
  void Publish(const std::vector<uint8_t>& take, double profit);
  /// Installs `take` unconditionally when profit >= the incumbent's: used by
  /// the exact solver to replace a schedule-dependent phase-1 incumbent with
  /// the deterministic reconstruction of equal profit.
  void PublishFinal(const std::vector<uint8_t>& take, double profit);
  void MarkOptimal() {
    proved_optimal_.store(true, std::memory_order_release);
  }

  /// Cancellation token, shared with inner solvers (e.g. KnapsackOptions).
  std::atomic<bool> stop_{false};

 private:
  void PublishLocked(const std::vector<uint8_t>& take, double profit);

  const std::string name_;
  const KnapsackView* view_;
  std::thread thread_;
  std::atomic<bool> finished_{false};
  std::atomic<bool> proved_optimal_{false};
  std::atomic<uint64_t> updates_{0};
  std::chrono::steady_clock::time_point start_;

  mutable std::mutex mutex_;
  SolverIncumbent incumbent_;
  std::vector<IncumbentEvent> timeline_;
};

/// Exact parallel branch-and-bound (SolveKnapsack) with anytime incumbent
/// publication; `workers` node-expansion lanes on the shared ThreadPool.
std::unique_ptr<PlacementSolver> MakeExactBnbSolver(const KnapsackView* view,
                                                    uint32_t workers);
/// Explicit Schlosser solution (Theorem 2): the strict prefix of the view's
/// performance order, the allocation of SelectExplicit(problem, false).
std::unique_ptr<PlacementSolver> MakeExplicitSolver(const KnapsackView* view);
/// Remark-2/3 greedy: the filling walk of the view's performance order, the
/// allocation of SelectExplicit(problem, true). Publishes the empty baseline
/// first, so a cancelled run always holds a valid incumbent.
std::unique_ptr<PlacementSolver> MakeGreedySolver(const KnapsackView* view);

struct PortfolioOptions {
  /// Wall-clock budget in milliseconds; <= 0 means unlimited (every solver
  /// runs to completion, so the result matches the exact selector).
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

/// Races the exact B&B, the explicit Schlosser solution, and the greedy
/// heuristic concurrently under the wall-clock budget and returns the best
/// incumbent across all of them, with the optimality gap against the LP
/// relaxation bound. With an unlimited budget the winner is the exact
/// solver's deterministic optimum, bit-identical to SelectIntegerOptimal.
/// Ties (within 1e-12 relative) resolve exact > explicit > greedy.
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
