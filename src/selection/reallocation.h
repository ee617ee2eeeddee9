#ifndef HYTAP_SELECTION_REALLOCATION_H_
#define HYTAP_SELECTION_REALLOCATION_H_

#include <cstdint>

#include "selection/selectors.h"

namespace hytap {

/// Result of one reallocation-aware selection (paper eqs (6)-(7), §III-D):
/// the winning allocation plus the move bookkeeping the re-tiering daemon
/// plans from.
struct ReallocationResult {
  SelectionResult selection;
  /// Columns whose tier changes vs the current allocation y, and the bytes
  /// those moves migrate.
  uint64_t planned_moves = 0;
  double planned_move_bytes = 0.0;
  /// F(y): the objective of staying put (the |x - y| term vanishes at x=y).
  double current_cost = 0.0;
  /// current_cost - selection.objective, i.e. the scan-cost win of moving
  /// net of the amortized move cost beta * moved bytes. >= 0 for an exact
  /// solve (staying put is always feasible).
  double improvement = 0.0;
  /// improvement as a percentage of current_cost (0 when current_cost = 0).
  double improvement_pct = 0.0;
};

/// Solves the selection problem with the reallocation term
///   c_i(x_i) = a_i * (S_i x_i + alpha x_i) + beta * a_i * |x_i - y_i|
/// for the current allocation y = `problem.current` and move weight
/// `problem.beta` (both must be set; beta may be 0) through the solver
/// portfolio (PortfolioOptions::FromEnv(): an unlimited budget, so the
/// result is the deterministic exact optimum and the re-tiering daemon
/// stays bit-identical across runs). Every solver prices the move term
/// through the shared KnapsackView.
ReallocationResult SelectWithReallocation(const SelectionProblem& problem);

/// Sizes beta from the maintenance window (§III-D): a move costs
/// `move_ns_per_byte` once, and the plan is amortized over the next
/// `amortization_windows` workload windows, so per-window the move is worth
/// move_ns_per_byte / amortization_windows ns per byte — directly comparable
/// to the per-window scan cost F(x). Larger amortization horizons make the
/// daemon more eager to move; horizon 0 is clamped to 1.
double BetaFromMigrationWindow(double move_ns_per_byte,
                               uint64_t amortization_windows);

}  // namespace hytap

#endif  // HYTAP_SELECTION_REALLOCATION_H_
