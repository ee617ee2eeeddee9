// Reproduces Table II: solver runtimes of the integer model vs the explicit
// solution for growing problem sizes (N columns, Q = 10N queries).
//
// The paper solves the ILP with MOSEK (runtimes up to ~2210 s at N = 50000)
// while the explicit solution answers in milliseconds. Our exact integer
// path is a branch-and-bound on the equivalent knapsack and is therefore
// much faster than a general ILP solver in absolute terms; to also show the
// general-solver shape we additionally run the continuous penalty model (5)
// through the dense simplex (the "standard solver" stand-in), which blows up
// quickly with N. The expected shape holds on both columns: general solver
// >> exact integer B&B >> explicit solution.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "selection/selectors.h"
#include "workload/example1.h"

using namespace hytap;

int main(int argc, char** argv) {
  // Pass --small to cap the sweep (CI-friendly).
  const bool small = argc > 1 && std::string(argv[1]) == "--small";
  bench::PrintHeader("Table II: solver runtime, integer vs explicit");
  std::printf("(model = shared cost-model build; solver columns exclude it)\n");
  std::printf("%8s %8s | %10s %12s %12s %12s | %12s\n", "columns", "queries",
              "model [s]", "simplex [s]", "integer [s]", "explicit [s]",
              "int/explicit");

  struct Config {
    size_t n, q;
  };
  std::vector<Config> configs = {{100, 1000},    {500, 5000},
                                 {1000, 10000},  {5000, 50000},
                                 {10000, 100000}, {20000, 200000},
                                 {50000, 500000}};
  if (small) configs.resize(4);
  const size_t simplex_limit = small ? 500 : 1000;

  for (const Config& config : configs) {
    Workload workload =
        GenerateScalabilityWorkload(config.n, config.q, /*seed=*/7);
    auto problem = SelectionProblem::FromRelativeBudget(
        workload, ScanCostParams{1.0, 100.0}, 0.3);
    // General-solver reference: the penalty LP (5) via the dense simplex,
    // with alpha mid-frontier. Only run where the tableau stays tractable.
    double simplex_seconds = -1.0;
    if (config.n <= simplex_limit) {
      bench::Stopwatch sw;
      (void)SelectContinuousSimplex(problem, /*alpha=*/50.0);
      simplex_seconds = sw.Seconds();
    }
    SelectionResult integer = SelectIntegerOptimal(problem);
    SelectionResult explicit_sol = SelectExplicit(problem);
    char simplex_text[32];
    if (simplex_seconds >= 0) {
      std::snprintf(simplex_text, sizeof simplex_text, "%12.3f",
                    simplex_seconds);
    } else {
      std::snprintf(simplex_text, sizeof simplex_text, "%12s", "(skipped)");
    }
    const double integer_solver =
        std::max(1e-9, integer.solve_seconds - integer.model_seconds);
    const double explicit_solver = std::max(
        1e-9, explicit_sol.solve_seconds - explicit_sol.model_seconds);
    std::printf("%8zu %8zu | %10.4f %s %12.5f %12.6f | %11.1fx%s\n",
                config.n, config.q, integer.model_seconds, simplex_text,
                integer_solver, explicit_solver,
                integer_solver / explicit_solver,
                integer.optimal ? "" : "  (node budget hit)");
    if (integer.optimal &&
        explicit_sol.scan_cost > 1.02 * integer.scan_cost) {
      std::printf("  WARNING: explicit solution %.3fx off optimal\n",
                  explicit_sol.scan_cost / integer.scan_cost);
    }
  }
  std::printf("\n-> the explicit solution stays in the millisecond range at "
              "any size; general LP solving explodes with N (the paper's "
              "MOSEK column), and even the specialized exact B&B trails the "
              "explicit computation (paper Table II shape).\n");
  return 0;
}
