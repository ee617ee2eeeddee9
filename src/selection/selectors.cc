#include "selection/selectors.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/assert.h"
#include "solver/branch_and_bound.h"
#include "solver/simplex.h"

namespace hytap {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Per-byte linear coefficient theta_i = S_i + beta * (1 - 2 y_i):
/// x_i = 1 improves the objective iff theta_i + alpha < 0 (paper eq. (9)).
/// Without a reallocation term theta is the model's S itself and no copy is
/// made; otherwise it is built in `*storage`.
const std::vector<double>& ThetaCoefficients(const SelectionProblem& problem,
                                             const CostModel& model,
                                             std::vector<double>* storage) {
  if (problem.current.empty() || problem.beta == 0.0) return model.S();
  const size_t n = problem.workload->column_count();
  HYTAP_ASSERT(problem.current.size() == n, "current allocation arity");
  *storage = model.S();
  for (size_t i = 0; i < n; ++i) {
    (*storage)[i] += problem.beta * (1.0 - 2.0 * double(problem.current[i]));
  }
  return *storage;
}

bool IsPinned(const SelectionProblem& problem, size_t i) {
  return !problem.pinned.empty() && problem.pinned[i] != 0;
}

double PinnedBytes(const SelectionProblem& problem) {
  if (problem.pinned.empty()) return 0.0;
  double bytes = 0.0;
  for (size_t i = 0; i < problem.pinned.size(); ++i) {
    if (problem.pinned[i]) bytes += problem.workload->column_sizes[i];
  }
  return bytes;
}

/// Sorts `ids` by theta ascending, ties by id: the comparator of the
/// performance order o_i (Theorem 2, Remark 1).
void SortByTheta(const std::vector<double>& theta, std::vector<uint32_t>* ids) {
  std::sort(ids->begin(), ids->end(), [&](uint32_t a, uint32_t b) {
    if (theta[a] != theta[b]) return theta[a] < theta[b];
    return a < b;
  });
}

/// The performance order: the unpinned indices with theta < 0, sorted by
/// theta. The explicit selector, the frontier, the Dantzig bound and the
/// portfolio's first two incumbents all walk this one order.
std::vector<uint32_t> PerformanceOrder(const std::vector<double>& theta,
                                       const std::vector<uint8_t>& pinned) {
  std::vector<uint32_t> order;
  order.reserve(theta.size());
  for (size_t i = 0; i < theta.size(); ++i) {
    if (theta[i] < 0.0 && (pinned.empty() || pinned[i] == 0)) {
      order.push_back(uint32_t(i));
    }
  }
  SortByTheta(theta, &order);
  return order;
}

/// The fill walk (see FillInOrder): marks each entry of `order` whose
/// `size_of` still fits used + size <= budget + 1e-9, starting from `used`
/// bytes; a strict walk stops at the first entry that does not fit.
template <typename SizeOf>
void Walk(const std::vector<uint32_t>& order, SizeOf size_of, double used,
          double budget, bool filling, std::vector<uint8_t>* taken) {
  for (uint32_t k : order) {
    const double a = size_of(k);
    if (used + a <= budget + 1e-9) {
      (*taken)[k] = 1;
      used += a;
    } else if (!filling) {
      break;
    }
  }
}

}  // namespace

SelectionProblem SelectionProblem::FromRelativeBudget(const Workload& workload,
                                                      ScanCostParams params,
                                                      double w) {
  HYTAP_ASSERT(w >= 0.0 && w <= 1.0, "relative budget must be in [0, 1]");
  SelectionProblem problem;
  problem.workload = &workload;
  problem.params = params;
  problem.budget_bytes = w * workload.TotalBytes();
  return problem;
}

SelectionResult FinishResult(const SelectionProblem& problem,
                             const CostModel& model,
                             std::vector<uint8_t> in_dram) {
  const size_t n = problem.workload->column_count();
  HYTAP_ASSERT(in_dram.size() == n, "allocation arity mismatch");
  for (size_t i = 0; i < n; ++i) {
    if (IsPinned(problem, i)) in_dram[i] = 1;
  }
  SelectionResult result;
  result.scan_cost = model.ScanCost(in_dram);
  result.dram_bytes = model.MemoryUsed(in_dram);
  result.objective = result.scan_cost;
  if (!problem.current.empty() && problem.beta != 0.0) {
    for (size_t i = 0; i < n; ++i) {
      if (in_dram[i] != problem.current[i]) {
        result.objective +=
            problem.beta * problem.workload->column_sizes[i];
      }
    }
  }
  result.in_dram = std::move(in_dram);
  return result;
}

std::vector<uint8_t> KnapsackView::Expand(
    const std::vector<uint8_t>& take) const {
  HYTAP_ASSERT(take.size() == items.size(), "take arity mismatch");
  std::vector<uint8_t> in_dram(base);
  for (size_t k = 0; k < items.size(); ++k) {
    if (take[k]) in_dram[item_columns[k]] = 1;
  }
  return in_dram;
}

std::vector<uint8_t> KnapsackView::Fill(bool filling) const {
  std::vector<uint8_t> take(items.size(), 0);
  Walk(order, [&](uint32_t k) { return items[k].weight; }, pinned_bytes,
       budget_bytes, filling, &take);
  return take;
}

KnapsackView BuildKnapsackView(const SelectionProblem& problem,
                               const CostModel& model) {
  std::vector<double> storage;
  const std::vector<double>& theta =
      ThetaCoefficients(problem, model, &storage);
  const size_t n = problem.workload->column_count();
  KnapsackView view;
  view.budget_bytes = problem.budget_bytes;
  view.pinned_bytes = PinnedBytes(problem);
  HYTAP_ASSERT(view.pinned_bytes <= problem.budget_bytes + 1e-9,
               "pinned columns exceed the DRAM budget");
  view.capacity = view.budget_bytes - view.pinned_bytes;
  view.base.assign(n, 0);
  std::vector<double> item_theta;
  for (size_t i = 0; i < n; ++i) {
    if (IsPinned(problem, i)) {
      view.base[i] = 1;
      continue;
    }
    const double profit = -problem.workload->column_sizes[i] * theta[i];
    if (profit > 0.0) {
      view.items.push_back(
          KnapsackItem{profit, problem.workload->column_sizes[i]});
      view.item_columns.push_back(i);
      item_theta.push_back(theta[i]);
    }
  }
  view.order = PerformanceOrder(item_theta, {});

  view.base_objective = model.ScanCost(view.base);
  if (!problem.current.empty() && problem.beta != 0.0) {
    for (size_t i = 0; i < n; ++i) {
      if (view.base[i] != problem.current[i]) {
        view.base_objective +=
            problem.beta * problem.workload->column_sizes[i];
      }
    }
  }

  // Dantzig bound: the fractional fill of the performance order, its head
  // on the first item that no longer fits. This is exactly the
  // LP-relaxation (4) optimum restricted to the profitable items, without
  // the O(N^2) dense simplex.
  double remaining = view.capacity;
  for (uint32_t k : view.order) {
    if (remaining <= 0.0) break;
    const KnapsackItem& item = view.items[k];
    if (item.weight <= remaining) {
      view.profit_upper_bound += item.profit;
      remaining -= item.weight;
    } else {
      view.profit_upper_bound += item.profit * (remaining / item.weight);
      break;
    }
  }
  return view;
}

SelectionResult SelectIntegerOptimal(const SelectionProblem& problem,
                                     uint64_t max_nodes) {
  const auto start = Clock::now();
  CostModel model(*problem.workload, problem.params);
  const double model_seconds = Seconds(start);
  const KnapsackView view = BuildKnapsackView(problem, model);
  KnapsackSolution knapsack =
      SolveKnapsack(view.items, view.capacity, max_nodes);

  SelectionResult result =
      FinishResult(problem, model, view.Expand(knapsack.take));
  result.solver_nodes = knapsack.nodes;
  result.solver_pruned = knapsack.pruned;
  result.optimal = knapsack.optimal;
  result.lp_bound = view.base_objective - knapsack.lp_bound;
  if (result.lp_bound != 0.0) {
    result.gap = std::max(
        0.0, (result.objective - result.lp_bound) / std::abs(result.lp_bound));
  }
  result.solve_seconds = Seconds(start);
  result.model_seconds = model_seconds;
  return result;
}

SelectionResult SelectContinuousPenalty(const SelectionProblem& problem,
                                        double alpha) {
  const auto start = Clock::now();
  HYTAP_ASSERT(alpha >= 0.0, "penalty alpha must be non-negative");
  CostModel model(*problem.workload, problem.params);
  std::vector<double> storage;
  const std::vector<double>& theta =
      ThetaCoefficients(problem, model, &storage);
  const size_t n = problem.workload->column_count();
  std::vector<uint8_t> in_dram(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (theta[i] + alpha < 0.0) in_dram[i] = 1;
  }
  SelectionResult result = FinishResult(problem, model, std::move(in_dram));
  result.solve_seconds = Seconds(start);
  return result;
}

ExplicitFrontier ComputeExplicitFrontier(const SelectionProblem& problem) {
  CostModel model(*problem.workload, problem.params);
  std::vector<double> storage;
  const std::vector<double>& theta =
      ThetaCoefficients(problem, model, &storage);
  const size_t n = problem.workload->column_count();

  // Pinned columns first (alpha = +inf; by theta among themselves), then
  // the performance order: the columns by descending critical
  // alpha_i = -theta_i, keeping only those whose selection can ever improve
  // the objective (alpha_i > 0).
  std::vector<uint32_t> order;
  for (size_t i = 0; i < n; ++i) {
    if (IsPinned(problem, i)) order.push_back(uint32_t(i));
  }
  SortByTheta(theta, &order);
  const std::vector<uint32_t> performance =
      PerformanceOrder(theta, problem.pinned);
  order.insert(order.end(), performance.begin(), performance.end());

  ExplicitFrontier frontier;
  frontier.points.reserve(order.size());
  double used = 0.0;
  double cost = model.AllSecondaryCost();
  // Baseline objective: with nothing in DRAM every currently-DRAM column
  // (y_i = 1) pays the eviction move cost.
  double moves = 0.0;
  if (!problem.current.empty() && problem.beta != 0.0) {
    for (size_t i = 0; i < n; ++i) {
      if (problem.current[i]) {
        moves += problem.beta * problem.workload->column_sizes[i];
      }
    }
  }
  for (uint32_t c : order) {
    const double a = problem.workload->column_sizes[c];
    used += a;
    cost += a * model.S()[c];
    if (!problem.current.empty() && problem.beta != 0.0) {
      // Selecting c either avoids its eviction cost (y=1) or adds a load
      // cost (y=0).
      moves += problem.beta * a * (problem.current[c] ? -1.0 : 1.0);
    }
    frontier.points.push_back(FrontierPoint{
        c, IsPinned(problem, c) ? std::numeric_limits<double>::infinity()
                                : -theta[c],
        used, cost, cost + moves});
  }
  return frontier;
}

std::vector<uint8_t> FillInOrder(const SelectionProblem& problem,
                                 const std::vector<uint32_t>& order,
                                 bool filling) {
  const std::vector<double>& sizes = problem.workload->column_sizes;
  std::vector<uint8_t> in_dram(sizes.size(), 0);
  for (size_t i = 0; i < in_dram.size(); ++i) {
    if (IsPinned(problem, i)) in_dram[i] = 1;
  }
  Walk(order, [&](uint32_t c) { return sizes[c]; }, PinnedBytes(problem),
       problem.budget_bytes, filling, &in_dram);
  return in_dram;
}

SelectionResult SelectExplicit(const SelectionProblem& problem,
                               bool filling) {
  const auto start = Clock::now();
  CostModel model(*problem.workload, problem.params);
  const double model_seconds = Seconds(start);
  std::vector<double> storage;
  const std::vector<uint32_t> order = PerformanceOrder(
      ThetaCoefficients(problem, model, &storage), problem.pinned);
  SelectionResult result =
      FinishResult(problem, model, FillInOrder(problem, order, filling));
  result.solve_seconds = Seconds(start);
  result.model_seconds = model_seconds;
  return result;
}

SelectionResult SelectGreedyMarginal(const SelectionProblem& problem) {
  return SelectExplicit(problem, /*filling=*/true);
}

SelectionResult SelectContinuousSimplex(const SelectionProblem& problem,
                                        double alpha) {
  const auto start = Clock::now();
  CostModel model(*problem.workload, problem.params);
  std::vector<double> storage;
  const std::vector<double>& theta =
      ThetaCoefficients(problem, model, &storage);
  const size_t n = problem.workload->column_count();
  // Problem (5)/(6) over x in [0,1]^N. For binary y the reallocation term is
  // linear in x (|x-0| = x, |x-1| = 1-x), so no auxiliary z variables are
  // needed; the objective coefficient of x_i is a_i * (theta_i + alpha).
  LpProblem lp;
  lp.objective.resize(n);
  for (size_t i = 0; i < n; ++i) {
    lp.objective[i] = problem.workload->column_sizes[i] * (theta[i] + alpha);
    if (IsPinned(problem, i)) {
      // Pinning: make selection arbitrarily attractive.
      lp.objective[i] = -1e18;
    }
  }
  lp.constraints.assign(n, std::vector<double>(n, 0.0));
  lp.rhs.assign(n, 1.0);
  for (size_t i = 0; i < n; ++i) lp.constraints[i][i] = 1.0;  // x_i <= 1
  LpSolution lp_solution = SolveLp(lp);
  HYTAP_ASSERT(lp_solution.feasible && lp_solution.bounded,
               "penalty LP must be feasible and bounded");
  std::vector<uint8_t> in_dram(n, 0);
  for (size_t i = 0; i < n; ++i) {
    // Lemma 1 guarantees integrality; tolerate float fuzz.
    in_dram[i] = lp_solution.x[i] > 0.5 ? 1 : 0;
  }
  SelectionResult result = FinishResult(problem, model, std::move(in_dram));
  result.solve_seconds = Seconds(start);
  return result;
}

RelaxationResult SolveRelaxationSimplex(const SelectionProblem& problem) {
  CostModel model(*problem.workload, problem.params);
  const size_t n = problem.workload->column_count();
  // LP (4) s.t. (3): pinned columns are substituted out (x = 1 fixed).
  double budget = problem.budget_bytes - PinnedBytes(problem);
  HYTAP_ASSERT(budget >= -1e-9, "pinned columns exceed the DRAM budget");
  std::vector<size_t> free_columns;
  for (size_t i = 0; i < n; ++i) {
    if (!IsPinned(problem, i)) free_columns.push_back(i);
  }
  LpProblem lp;
  const size_t k = free_columns.size();
  lp.objective.resize(k);
  lp.constraints.assign(k + 1, std::vector<double>(k, 0.0));
  lp.rhs.assign(k + 1, 1.0);
  for (size_t j = 0; j < k; ++j) {
    const size_t i = free_columns[j];
    lp.objective[j] = problem.workload->column_sizes[i] * model.S()[i];
    lp.constraints[0][j] = problem.workload->column_sizes[i];
    lp.constraints[j + 1][j] = 1.0;
  }
  lp.rhs[0] = std::max(0.0, budget);
  LpSolution lp_solution = SolveLp(lp);
  RelaxationResult result;
  result.feasible = lp_solution.feasible && lp_solution.bounded;
  if (!result.feasible) return result;
  result.x.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (IsPinned(problem, i)) result.x[i] = 1.0;
  }
  for (size_t j = 0; j < k; ++j) result.x[free_columns[j]] = lp_solution.x[j];
  result.scan_cost = model.ScanCostContinuous(result.x);
  for (size_t i = 0; i < n; ++i) {
    result.dram_bytes += result.x[i] * problem.workload->column_sizes[i];
  }
  return result;
}

}  // namespace hytap
