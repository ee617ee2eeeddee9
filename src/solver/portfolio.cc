#include "solver/portfolio.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.h"
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

class ExactBnbSolver final : public PlacementSolver {
 public:
  ExactBnbSolver(const KnapsackView* view, uint32_t workers)
      : PlacementSolver("exact", view), workers_(workers) {}

  uint64_t nodes() const override {
    return nodes_.load(std::memory_order_relaxed);
  }
  uint64_t pruned() const override {
    return pruned_.load(std::memory_order_relaxed);
  }

 protected:
  void Solve() override {
    KnapsackOptions options;
    options.workers = workers_;
    options.cancel = &stop_;
    options.on_improve = [this](double profit, double /*weight*/,
                                const std::vector<uint8_t>& take) {
      Publish(take, profit);
    };
    const KnapsackSolution solution =
        SolveKnapsack(view().items, view().capacity, options);
    nodes_.store(solution.nodes, std::memory_order_relaxed);
    pruned_.store(solution.pruned, std::memory_order_relaxed);
    if (solution.optimal) {
      // The completed search ends with the deterministic reconstruction;
      // install it even at equal profit so the final answer is
      // schedule-independent.
      PublishFinal(solution.take, solution.profit);
      MarkOptimal();
    }
  }

 private:
  const uint32_t workers_;
  std::atomic<uint64_t> nodes_{0};
  std::atomic<uint64_t> pruned_{0};
};

/// The explicit (strict) and greedy (filling) lanes: one walk of the view's
/// performance order, the allocation SelectExplicit returns.
class OrderSolver final : public PlacementSolver {
 public:
  OrderSolver(const KnapsackView* view, bool filling)
      : PlacementSolver(filling ? "greedy" : "explicit", view),
        filling_(filling) {}

 protected:
  void Solve() override {
    if (filling_) {
      // Publish the feasible baseline first: even an immediately cancelled
      // portfolio run holds a valid incumbent.
      Publish(std::vector<uint8_t>(view().items.size(), 0), 0.0);
    }
    const std::vector<uint8_t> take = view().Fill(filling_);
    double profit = 0.0;
    for (size_t k = 0; k < take.size(); ++k) {
      if (take[k]) profit += view().items[k].profit;
    }
    Publish(take, profit);
  }

 private:
  const bool filling_;
};

}  // namespace

PlacementSolver::PlacementSolver(std::string name, const KnapsackView* view)
    : name_(std::move(name)), view_(view) {
  HYTAP_ASSERT(view_ != nullptr, "solver needs a knapsack view");
}

PlacementSolver::~PlacementSolver() { StopSolving(); }

void PlacementSolver::StartSolving() {
  HYTAP_ASSERT(!thread_.joinable(), "solver already started");
  start_ = Clock::now();
  thread_ = std::thread([this] {
    Solve();
    finished_.store(true, std::memory_order_release);
  });
}

void PlacementSolver::StopSolving() {
  stop_.store(true, std::memory_order_relaxed);
  Join();
}

void PlacementSolver::Join() {
  if (thread_.joinable()) thread_.join();
}

SolverIncumbent PlacementSolver::GetIncumbent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return incumbent_;
}

std::vector<IncumbentEvent> PlacementSolver::TakeTimeline() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(timeline_);
}

void PlacementSolver::Publish(const std::vector<uint8_t>& take,
                              double profit) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (incumbent_.valid && profit <= incumbent_.profit) return;
  PublishLocked(take, profit);
}

void PlacementSolver::PublishFinal(const std::vector<uint8_t>& take,
                                   double profit) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (incumbent_.valid && profit < incumbent_.profit) return;
  PublishLocked(take, profit);
}

void PlacementSolver::PublishLocked(const std::vector<uint8_t>& take,
                                    double profit) {
  incumbent_.valid = true;
  incumbent_.take = take;
  incumbent_.profit = profit;
  incumbent_.objective = view_->base_objective - profit;
  incumbent_.elapsed_seconds = Seconds(start_);
  updates_.fetch_add(1, std::memory_order_relaxed);
  IncumbentEvent event;
  event.solver = name_;
  event.elapsed_seconds = incumbent_.elapsed_seconds;
  event.objective = incumbent_.objective;
  timeline_.push_back(std::move(event));
}

std::unique_ptr<PlacementSolver> MakeExactBnbSolver(const KnapsackView* view,
                                                    uint32_t workers) {
  return std::make_unique<ExactBnbSolver>(view, workers);
}

std::unique_ptr<PlacementSolver> MakeExplicitSolver(const KnapsackView* view) {
  return std::make_unique<OrderSolver>(view, /*filling=*/false);
}

std::unique_ptr<PlacementSolver> MakeGreedySolver(const KnapsackView* view) {
  return std::make_unique<OrderSolver>(view, /*filling=*/true);
}

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

  const uint32_t workers =
      options_.workers != 0
          ? options_.workers
          : uint32_t(ThreadPool::DefaultWorkerCount());

  std::vector<std::unique_ptr<PlacementSolver>> solvers;
  solvers.push_back(MakeExactBnbSolver(&view, workers));
  solvers.push_back(MakeExplicitSolver(&view));
  solvers.push_back(MakeGreedySolver(&view));

  for (auto& solver : solvers) solver->StartSolving();

  PortfolioResult result;
  if (options_.budget_ms > 0.0) {
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        options_.budget_ms));
    for (;;) {
      const bool all_finished =
          std::all_of(solvers.begin(), solvers.end(),
                      [](const auto& s) { return s->Finished(); });
      if (all_finished) break;
      if (Clock::now() >= deadline) {
        result.deadline_hit = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    for (auto& solver : solvers) solver->StopSolving();
  } else {
    for (auto& solver : solvers) solver->Join();
  }

  // Winner: lowest objective; ties (within 1e-12 relative) resolve by the
  // construction order exact > explicit > greedy, which keeps an unlimited
  // budget bit-identical to SelectIntegerOptimal.
  std::vector<SolverIncumbent> incumbents;
  incumbents.reserve(solvers.size());
  for (auto& solver : solvers) incumbents.push_back(solver->GetIncumbent());
  double best_objective = std::numeric_limits<double>::infinity();
  for (const SolverIncumbent& inc : incumbents) {
    if (inc.valid) best_objective = std::min(best_objective, inc.objective);
  }
  size_t winner = solvers.size();
  const double tie_tol = 1e-12 * std::max(1.0, std::abs(best_objective));
  for (size_t s = 0; s < solvers.size(); ++s) {
    if (incumbents[s].valid &&
        incumbents[s].objective <= best_objective + tie_tol) {
      winner = s;
      break;
    }
  }
  HYTAP_ASSERT(winner < solvers.size(),
               "portfolio ended without any incumbent");

  result.winner = solvers[winner]->name();
  result.lp_bound = view.ObjectiveLowerBound();
  result.proved_optimal = solvers[winner]->ProvedOptimal();

  result.selection =
      FinishResult(problem, model, view.Expand(incumbents[winner].take));
  result.selection.model_seconds = model_seconds;
  result.selection.optimal = result.proved_optimal;
  result.selection.lp_bound = result.lp_bound;
  if (result.lp_bound != 0.0) {
    result.gap = std::max(0.0,
                          (result.selection.objective - result.lp_bound) /
                              std::abs(result.lp_bound));
  }
  result.selection.gap = result.gap;

  for (auto& solver : solvers) {
    result.nodes += solver->nodes();
    result.pruned += solver->pruned();
    result.incumbent_updates += solver->incumbent_updates();
    for (IncumbentEvent& event : solver->TakeTimeline()) {
      result.timeline.push_back(std::move(event));
    }
  }
  result.selection.solver_nodes = result.nodes;
  result.selection.solver_pruned = result.pruned;
  std::stable_sort(result.timeline.begin(), result.timeline.end(),
                   [](const IncumbentEvent& a, const IncumbentEvent& b) {
                     return a.elapsed_seconds < b.elapsed_seconds;
                   });
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
