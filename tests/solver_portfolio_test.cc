// Anytime solver portfolio (DESIGN.md §13): determinism of the parallel
// branch-and-bound, bit-for-bit agreement with the exact selector at an
// unlimited budget, the view's strict and filling walks against
// SelectExplicit, valid incumbents once the deadline has passed, monotone
// gap timelines that end within 1 % of exact, and the analytic LP bound
// against the simplex relaxation.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/random.h"
#include "selection/selectors.h"
#include "solver/branch_and_bound.h"
#include "solver/portfolio.h"
#include "solver/simplex.h"
#include "workload/example1.h"

namespace hytap {
namespace {

SelectionProblem MakeProblem(const Workload& workload, double share) {
  SelectionProblem problem;
  problem.workload = &workload;
  problem.budget_bytes = share * workload.TotalBytes();
  return problem;
}

/// The merged incumbent-gap curve never rises.
void ExpectMonotoneTimeline(const PortfolioResult& result) {
  ASSERT_FALSE(result.timeline.empty());
  double last_gap = std::numeric_limits<double>::infinity();
  for (const IncumbentEvent& event : result.timeline) {
    EXPECT_LE(event.gap, last_gap + 1e-15);
    last_gap = event.gap;
  }
}

std::vector<KnapsackItem> RandomItems(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<KnapsackItem> items;
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double weight = 1.0 + rng.NextDouble() * 99.0;
    // Weakly correlated: hard enough that the search actually branches.
    items.push_back(KnapsackItem{weight * (0.8 + 0.4 * rng.NextDouble()),
                                 weight});
  }
  return items;
}

TEST(ParallelKnapsackTest, WorkerCountDoesNotChangeTheAnswer) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const std::vector<KnapsackItem> items = RandomItems(60, seed);
    const double capacity = 40.0 * 25.0;
    KnapsackSolution reference;
    for (uint32_t workers : {1u, 2u, 4u}) {
      KnapsackOptions options;
      options.workers = workers;
      const KnapsackSolution solution =
          SolveKnapsack(items, capacity, options);
      ASSERT_TRUE(solution.optimal);
      if (workers == 1) {
        reference = solution;
        continue;
      }
      // Bit-identical: the same take-vector and the exact same profit
      // double, not merely an equal objective.
      EXPECT_EQ(solution.take, reference.take) << "seed " << seed;
      EXPECT_EQ(solution.profit, reference.profit) << "seed " << seed;
      EXPECT_EQ(solution.weight, reference.weight) << "seed " << seed;
    }
  }
}

TEST(ParallelKnapsackTest, RepeatedParallelRunsAreIdentical) {
  const std::vector<KnapsackItem> items = RandomItems(80, 7);
  const double capacity = 1200.0;
  KnapsackOptions options;
  options.workers = 4;
  const KnapsackSolution first = SolveKnapsack(items, capacity, options);
  ASSERT_TRUE(first.optimal);
  for (int run = 0; run < 5; ++run) {
    const KnapsackSolution again = SolveKnapsack(items, capacity, options);
    EXPECT_EQ(again.take, first.take);
    EXPECT_EQ(again.profit, first.profit);
  }
}

TEST(ParallelKnapsackTest, GapAndCountersAreReported) {
  const std::vector<KnapsackItem> items = RandomItems(40, 3);
  const KnapsackSolution solution = SolveKnapsack(items, 500.0);
  ASSERT_TRUE(solution.optimal);
  EXPECT_GT(solution.nodes, 0u);
  EXPECT_GE(solution.lp_bound, solution.profit);
  EXPECT_GE(solution.gap, 0.0);
  EXPECT_NEAR(solution.gap,
              (solution.lp_bound - solution.profit) / solution.lp_bound,
              1e-12);
}

TEST(ParallelKnapsackTest, ExpiredDeadlineStopsTheSearch) {
  // A large hard instance whose deadline has already passed: the search must
  // return promptly with deadline_hit set and a feasible incumbent whose
  // profit and weight are those of its take.
  const std::vector<KnapsackItem> items = RandomItems(5000, 11);
  const double capacity = 0.25 * 5000.0 * 50.0;
  KnapsackOptions options;
  options.workers = 2;
  options.deadline = std::chrono::steady_clock::now();
  const KnapsackSolution solution = SolveKnapsack(items, capacity, options);
  EXPECT_TRUE(solution.deadline_hit);
  EXPECT_FALSE(solution.optimal);
  ASSERT_EQ(solution.take.size(), items.size());
  double weight = 0.0;
  double profit = 0.0;
  for (size_t i = 0; i < items.size(); ++i) {
    if (solution.take[i]) {
      weight += items[i].weight;
      profit += items[i].profit;
    }
  }
  EXPECT_GT(solution.profit, 0.0);
  EXPECT_LE(weight, capacity * (1.0 + 1e-9));
  EXPECT_NEAR(weight, solution.weight, 1e-9 * capacity);
  EXPECT_NEAR(profit, solution.profit, 1e-9 * std::max(1.0, profit));
}

TEST(PortfolioTest, UnlimitedBudgetMatchesExactSelectorBitForBit) {
  for (uint64_t seed : {1u, 5u, 9u}) {
    Example1Params params;
    params.num_columns = 40;
    params.num_queries = 300;
    params.seed = seed;
    const Workload workload = GenerateExample1(params);
    const SelectionProblem problem = MakeProblem(workload, 0.3);

    const SelectionResult exact = SelectIntegerOptimal(problem);
    ASSERT_TRUE(exact.optimal);

    PortfolioOptions options;
    options.budget_ms = 0.0;  // unlimited
    options.workers = 4;
    SolverPortfolio portfolio(options);
    const PortfolioResult result = portfolio.Solve(problem);

    EXPECT_EQ(result.winner, "exact");
    EXPECT_TRUE(result.proved_optimal);
    EXPECT_FALSE(result.deadline_hit);
    EXPECT_EQ(result.selection.in_dram, exact.in_dram) << "seed " << seed;
    EXPECT_EQ(result.selection.objective, exact.objective);
    EXPECT_EQ(result.selection.scan_cost, exact.scan_cost);
  }
}

TEST(PortfolioTest, DeadlineLeavesValidIncumbent) {
  // Large instance with a ~zero budget: the search stops almost
  // immediately, yet the portfolio must still return a feasible placement
  // (the two walks are incumbents before the search starts).
  const Workload workload = GenerateMultiTenantWorkload(200, 50, 4, 21);
  const SelectionProblem problem = MakeProblem(workload, 0.2);

  PortfolioOptions options;
  options.budget_ms = 1.0;
  options.workers = 2;
  SolverPortfolio portfolio(options);
  const PortfolioResult result = portfolio.Solve(problem);

  ASSERT_EQ(result.selection.in_dram.size(), workload.column_count());
  EXPECT_LE(result.selection.dram_bytes, problem.budget_bytes + 1e-6);
  EXPECT_GE(result.gap, 0.0);
  EXPECT_GE(result.selection.objective,
            result.lp_bound - 1e-9 * std::abs(result.lp_bound));
}

TEST(PortfolioTest, ExpiredDeadlineReturnsTheFillWalk) {
  // The deadline passes before the search starts. Before its first deadline
  // check a lane reaches at most about 267 levels (the 11-level split prefix
  // plus one 256-node batch), far fewer than the 986 items of the strict
  // walk, so no exact incumbent can beat the filling walk (999 of the 1,631
  // profitable items) at any worker count.
  const Workload workload = GenerateMultiTenantWorkload(200, 50, 4, 21);
  const SelectionProblem problem = MakeProblem(workload, 0.10);
  const SelectionResult fill = SelectExplicit(problem, true);
  for (uint32_t workers : {1u, 2u, 4u}) {
    PortfolioOptions options;
    options.budget_ms = 1e-6;
    options.workers = workers;
    const PortfolioResult result = SolverPortfolio(options).Solve(problem);
    EXPECT_EQ(result.winner, "greedy") << workers << " workers";
    EXPECT_TRUE(result.deadline_hit) << workers << " workers";
    EXPECT_FALSE(result.proved_optimal) << workers << " workers";
    EXPECT_EQ(result.selection.in_dram, fill.in_dram) << workers << " workers";
  }
}

TEST(PortfolioTest, TimelineGapIsMonotoneNonIncreasing) {
  Example1Params params;
  params.num_columns = 60;
  params.num_queries = 400;
  params.seed = 2;
  const Workload workload = GenerateExample1(params);
  const SelectionProblem problem = MakeProblem(workload, 0.4);

  PortfolioOptions options;
  options.budget_ms = 0.0;
  options.workers = 2;
  SolverPortfolio portfolio(options);
  const PortfolioResult result = portfolio.Solve(problem);

  ExpectMonotoneTimeline(result);
  // The race completed, so the final portfolio gap is the winner's gap.
  EXPECT_NEAR(result.timeline.back().gap, result.gap, 1e-9);
}

TEST(PortfolioTest, BenchCurvesEndWithinOnePercentOfExact) {
  // The gap-vs-time curves of bench_solver_portfolio: Example-1 (N = 50)
  // and a BSEG-sized instance (N = 344), raced to completion.
  Example1Params example1;
  example1.seed = 7;
  const Workload instances[] = {
      GenerateExample1(example1),
      GenerateScalabilityWorkload(344, 3440, /*seed=*/7)};
  for (const Workload& workload : instances) {
    const SelectionProblem problem = MakeProblem(workload, 0.3);
    PortfolioOptions options;
    options.budget_ms = 0.0;  // unlimited
    const PortfolioResult result = SolverPortfolio(options).Solve(problem);
    const SelectionResult exact = SelectIntegerOptimal(problem);
    ASSERT_TRUE(exact.optimal);
    ExpectMonotoneTimeline(result);
    EXPECT_LE(result.selection.objective, exact.objective * 1.01 + 1e-9)
        << "N = " << workload.column_count();
  }
}

TEST(PortfolioTest, LanesReturnTheExplicitSelectorsAllocation) {
  // 385 of the 2000 columns repeat another column's theta exactly, so the
  // view's walks must break theta ties by column id, as SelectExplicit does.
  const Workload workload = GenerateMultiTenantWorkload(40, 50, 20, 42);
  for (int step = 1; step <= 19; ++step) {
    const SelectionProblem problem = MakeProblem(workload, 0.05 * step);
    CostModel model(*problem.workload, problem.params);
    const KnapsackView view = BuildKnapsackView(problem, model);
    for (bool filling : {false, true}) {
      EXPECT_EQ(view.Expand(view.Fill(filling)),
                SelectExplicit(problem, filling).in_dram)
          << (filling ? "filling" : "strict") << " walk, budget share "
          << 0.05 * step;
    }
  }
}

TEST(PortfolioTest, AnalyticLpBoundMatchesSimplexRelaxation) {
  for (uint64_t seed : {3u, 8u}) {
    Example1Params params;
    params.num_columns = 30;
    params.num_queries = 200;
    params.seed = seed;
    const Workload workload = GenerateExample1(params);
    const SelectionProblem problem = MakeProblem(workload, 0.35);

    CostModel model(*problem.workload, problem.params);
    const KnapsackView view = BuildKnapsackView(problem, model);
    const RelaxationResult relaxed = SolveRelaxationSimplex(problem);
    ASSERT_TRUE(relaxed.feasible);
    // Same relaxation, two solvers: the analytic Dantzig bound and the
    // dense simplex must agree on the optimal relaxed scan cost.
    EXPECT_NEAR(view.ObjectiveLowerBound(), relaxed.scan_cost,
                1e-6 * std::abs(relaxed.scan_cost));
  }
}

TEST(PortfolioTest, SolverMetricsAreRecorded) {
  SetMetricsEnabled(true);
  MetricsRegistry::Global().ResetAll();

  Example1Params params;
  params.num_columns = 30;
  params.num_queries = 200;
  params.seed = 4;
  const Workload workload = GenerateExample1(params);
  const SelectionProblem problem = MakeProblem(workload, 0.3);

  PortfolioOptions options;
  options.budget_ms = 0.0;
  options.workers = 2;
  SolverPortfolio portfolio(options);
  const PortfolioResult result = portfolio.Solve(problem);
  ASSERT_TRUE(result.proved_optimal);

  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.counters.at("hytap_solver_runs_total"), 1u);
  EXPECT_GT(snapshot.counters.at("hytap_solver_nodes_total"), 0u);
  EXPECT_GT(snapshot.counters.at("hytap_solver_incumbent_updates_total"), 0u);
  EXPECT_EQ(snapshot.counters.at("hytap_solver_wins_exact_total"), 1u);
  EXPECT_EQ(snapshot.histograms.at("hytap_solver_wall_ns").count, 1u);
  SetMetricsEnabled(false);
}

TEST(PortfolioTest, SimplexIterationLimitIsDistinctStatus) {
  // Satellite: the simplex reports hitting the cap as a status instead of
  // silently returning an infeasible-looking solution.
  LpProblem lp;
  lp.objective = {-1.0, -1.0};
  lp.constraints = {{1.0, 0.0}, {0.0, 1.0}};
  lp.rhs = {1.0, 1.0};
  const LpSolution capped = SolveLp(lp, 1);
  EXPECT_FALSE(capped.feasible);
  EXPECT_EQ(capped.status, LpStatus::kIterationLimit);

  const LpSolution solved = SolveLp(lp);
  EXPECT_TRUE(solved.feasible);
  EXPECT_EQ(solved.status, LpStatus::kOptimal);
}

TEST(PortfolioTest, ShortDeadlineRaceEndsWithinOnePercentOfExact) {
  // A 50 ms race at N = 25 names a winner and returns a budget-feasible
  // placement.
  Example1Params params;
  params.num_columns = 25;
  params.num_queries = 150;
  params.seed = 6;
  const Workload workload = GenerateExample1(params);
  const SelectionProblem problem = MakeProblem(workload, 0.3);

  PortfolioOptions options;
  options.budget_ms = 50.0;
  options.workers = 2;
  SolverPortfolio portfolio(options);
  const PortfolioResult result = portfolio.Solve(problem);
  EXPECT_FALSE(result.winner.empty());
  EXPECT_LE(result.selection.dram_bytes, problem.budget_bytes + 1e-6);
  // Small instance, generous time budget: the incumbent is within 1% of the
  // exact optimum (result.gap also carries the LP integrality gap, which can
  // exceed 1% at N = 25, so compare against the integer optimum instead).
  const SelectionResult exact = SelectIntegerOptimal(problem);
  ASSERT_TRUE(exact.optimal);
  EXPECT_LE(result.selection.objective,
            exact.objective * 1.01 + 1e-9);
}

}  // namespace
}  // namespace hytap
