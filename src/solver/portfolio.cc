#include "solver/portfolio.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

#include "common/env.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "solver/branch_and_bound.h"

namespace hytap {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// hytap_solver_* instrumentation (DESIGN.md §11 registry; resolved once).
struct SolverMetrics {
  Counter* runs;
  Counter* nodes;
  Counter* pruned;
  Counter* incumbent_updates;
  Counter* wins_exact;
  Counter* wins_explicit;
  Counter* wins_greedy;
  Counter* deadline_stops;
  Gauge* last_gap_ppm;
  Gauge* last_budget_ms;
  HistogramMetric* wall_ns;

  static const SolverMetrics& Get() {
    static const SolverMetrics metrics = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      SolverMetrics m;
      m.runs = r.GetCounter("hytap_solver_runs_total");
      m.nodes = r.GetCounter("hytap_solver_nodes_total");
      m.pruned = r.GetCounter("hytap_solver_pruned_total");
      m.incumbent_updates =
          r.GetCounter("hytap_solver_incumbent_updates_total");
      m.wins_exact = r.GetCounter("hytap_solver_wins_exact_total");
      m.wins_explicit = r.GetCounter("hytap_solver_wins_explicit_total");
      m.wins_greedy = r.GetCounter("hytap_solver_wins_greedy_total");
      m.deadline_stops = r.GetCounter("hytap_solver_deadline_stops_total");
      m.last_gap_ppm = r.GetGauge("hytap_solver_last_gap_ppm");
      m.last_budget_ms = r.GetGauge("hytap_solver_last_budget_ms");
      m.wall_ns = r.GetHistogram("hytap_solver_wall_ns", DurationNsBuckets());
      return m;
    }();
    return metrics;
  }
};

}  // namespace

PortfolioOptions PortfolioOptions::FromEnv() {
  PortfolioOptions options;
  options.workers =
      uint32_t(EnvU64("HYTAP_SOLVER_THREADS", options.workers));
  return options;
}

SolverPortfolio::SolverPortfolio(PortfolioOptions options)
    : options_(options) {}

PortfolioResult SolverPortfolio::Solve(const SelectionProblem& problem) {
  const auto start = Clock::now();
  CostModel model(*problem.workload, problem.params);
  const KnapsackView view = BuildKnapsackView(problem, model);
  const double model_seconds = Seconds(start);

  PortfolioResult result;
  const auto search_start = Clock::now();
  // Events are recorded as they happen, so the timeline is in time order.
  auto record = [&](const char* solver, double profit) {
    IncumbentEvent event;
    event.solver = solver;
    event.elapsed_seconds = Seconds(search_start);
    event.objective = view.base_objective - profit;
    result.timeline.push_back(std::move(event));
  };

  // One incumbent per solver, in the tie order exact > explicit > greedy.
  struct Incumbent {
    const char* solver;
    bool valid;
    std::vector<uint8_t> take;  // over the view's items
    double profit;
  };
  Incumbent incumbents[] = {
      {"exact", false, {}, 0.0},
      {"explicit", false, {}, 0.0},
      {"greedy", false, {}, 0.0},
  };
  for (bool filling : {false, true}) {
    Incumbent& walk = incumbents[filling ? 2 : 1];
    walk.take = view.Fill(filling);
    for (size_t k = 0; k < walk.take.size(); ++k) {
      if (walk.take[k]) walk.profit += view.items[k].profit;
    }
    walk.valid = true;
    record(walk.solver, walk.profit);
  }

  KnapsackOptions options;
  options.workers = options_.workers != 0
                        ? options_.workers
                        : uint32_t(ThreadPool::DefaultWorkerCount());
  if (options_.budget_ms > 0.0) {
    options.deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        options_.budget_ms));
  }
  options.on_improve = [&record](double profit, double /*weight*/,
                                  const std::vector<uint8_t>& /*take*/) {
    record("exact", profit);
  };
  KnapsackSolution solution =
      SolveKnapsack(view.items, view.capacity, options);
  Incumbent& exact = incumbents[0];
  // A stopped search holds an incumbent once it improved on the empty take;
  // a completed one ends with the canonical reconstruction of the optimum,
  // which makes the final answer schedule-independent.
  exact.valid = solution.optimal || solution.profit > 0.0;
  if (solution.optimal) record("exact", solution.profit);
  exact.take = std::move(solution.take);
  exact.profit = solution.profit;
  result.deadline_hit = solution.deadline_hit;
  result.nodes = solution.nodes;
  result.pruned = solution.pruned;
  result.incumbent_updates = result.timeline.size();

  // Winner: lowest objective; ties (within 1e-12 relative) resolve in the
  // order exact > explicit > greedy, which keeps an unlimited budget
  // bit-identical to SelectIntegerOptimal. The walks are always valid, so
  // there is a winner.
  auto objective = [&view](const Incumbent& inc) {
    return view.base_objective - inc.profit;
  };
  double best_objective = std::numeric_limits<double>::infinity();
  for (const Incumbent& inc : incumbents) {
    if (inc.valid) best_objective = std::min(best_objective, objective(inc));
  }
  const double tie_tol = 1e-12 * std::max(1.0, std::abs(best_objective));
  const Incumbent* winner = std::find_if(
      std::begin(incumbents), std::end(incumbents), [&](const Incumbent& inc) {
        return inc.valid && objective(inc) <= best_objective + tie_tol;
      });

  result.winner = winner->solver;
  result.lp_bound = view.ObjectiveLowerBound();
  result.proved_optimal = winner == &exact && solution.optimal;

  result.selection = FinishResult(problem, model, view.Expand(winner->take));
  result.selection.model_seconds = model_seconds;
  result.selection.optimal = result.proved_optimal;
  result.selection.lp_bound = result.lp_bound;
  if (result.lp_bound != 0.0) {
    result.gap = std::max(0.0,
                          (result.selection.objective - result.lp_bound) /
                              std::abs(result.lp_bound));
  }
  result.selection.gap = result.gap;
  result.selection.solver_nodes = result.nodes;
  result.selection.solver_pruned = result.pruned;

  // Portfolio-wide gap at each event: running best across solvers, so the
  // curve is monotonically non-increasing by construction.
  double running_best = std::numeric_limits<double>::infinity();
  const double bound_scale = std::max(1e-12, std::abs(result.lp_bound));
  for (IncumbentEvent& event : result.timeline) {
    running_best = std::min(running_best, event.objective);
    event.gap = std::max(0.0, (running_best - result.lp_bound) / bound_scale);
  }

  result.wall_seconds = Seconds(start);
  result.selection.solve_seconds = result.wall_seconds;

  if (MetricsEnabled()) {
    const SolverMetrics& metrics = SolverMetrics::Get();
    metrics.runs->Add(1);
    metrics.nodes->Add(result.nodes);
    metrics.pruned->Add(result.pruned);
    metrics.incumbent_updates->Add(result.incumbent_updates);
    if (result.winner == "exact") {
      metrics.wins_exact->Add(1);
    } else if (result.winner == "explicit") {
      metrics.wins_explicit->Add(1);
    } else {
      metrics.wins_greedy->Add(1);
    }
    if (result.deadline_hit) metrics.deadline_stops->Add(1);
    metrics.last_gap_ppm->Set(int64_t(result.gap * 1e6));
    metrics.last_budget_ms->Set(int64_t(options_.budget_ms));
    metrics.wall_ns->Observe(uint64_t(result.wall_seconds * 1e9));
  }
  return result;
}

}  // namespace hytap
