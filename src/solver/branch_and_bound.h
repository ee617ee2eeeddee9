#ifndef HYTAP_SOLVER_BRANCH_AND_BOUND_H_
#define HYTAP_SOLVER_BRANCH_AND_BOUND_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

namespace hytap {

/// An item of the 0/1 knapsack: strictly positive profit and weight.
struct KnapsackItem {
  double profit;
  double weight;
};

struct KnapsackSolution {
  std::vector<uint8_t> take;  // per input item
  double profit = 0.0;
  double weight = 0.0;
  uint64_t nodes = 0;     // explored branch-and-bound nodes (both phases)
  uint64_t pruned = 0;    // subtrees cut by the Dantzig bound (+ infeasible
                          // subproblem prefixes)
  double lp_bound = 0.0;  // root fractional-relaxation (LP) profit bound
  /// Relative optimality gap vs the LP bound:
  /// (lp_bound - profit) / lp_bound, clamped >= 0. For a completed search
  /// this is the LP integrality gap, not a suboptimality claim.
  double gap = 0.0;
  bool optimal = true;       // false if the node budget or deadline ran out
  bool deadline_hit = false; // the deadline stopped the search
};

/// Knobs of the parallel anytime search.
struct KnapsackOptions {
  /// Total node budget across all workers; exhausted => incumbent returned
  /// with optimal = false.
  uint64_t max_nodes = 200'000'000;
  /// Concurrent node-expansion workers on the shared ThreadPool (the caller
  /// participates). 1 = serial. The final answer is identical for every
  /// worker count (see the .cc determinism note).
  uint32_t workers = 1;
  /// Wall-clock deadline (anytime use), checked every node batch; max() =
  /// none, and then no clock is read. Once it passes, the best incumbent so
  /// far is returned with deadline_hit = true.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Invoked (serialized under an internal mutex) whenever the shared
  /// incumbent improves; `take` is in input-item order. Used by the solver
  /// portfolio's gap-vs-time curve.
  std::function<void(double profit, double weight,
                     const std::vector<uint8_t>& take)>
      on_improve;
};

/// Exact 0/1 knapsack via branch-and-bound with the Dantzig
/// (fractional-relaxation) upper bound, evaluated in O(log N) per node from
/// prefix sums over the density order.
///
/// The paper solves the column selection ILP (2)-(3) with MOSEK; because the
/// scan-cost objective is separable once the per-query predicate order is
/// fixed by selectivity, the ILP is exactly a 0/1 knapsack, and this solver
/// plays the "standard integer solver" role (Table II).
///
/// Parallel node expansion: the first kSplitDepth density-sorted items span a
/// static grid of subproblems claimed work-stealing style from the shared
/// ThreadPool; a shared atomic incumbent bound prunes across subproblems.
/// A completed search ends with a deterministic reconstruction pass, so the
/// returned take-vector is bit-identical regardless of worker count and
/// scheduling (DESIGN.md §13).
KnapsackSolution SolveKnapsack(const std::vector<KnapsackItem>& items,
                               double capacity, const KnapsackOptions& options);

/// Serial convenience overload (existing call sites).
KnapsackSolution SolveKnapsack(const std::vector<KnapsackItem>& items,
                               double capacity,
                               uint64_t max_nodes = 200'000'000);

}  // namespace hytap

#endif  // HYTAP_SOLVER_BRANCH_AND_BOUND_H_
