// Reproduces Figure 6: structure of optimal solutions across DRAM budgets.
//  (a) integer optimum: complex, non-monotone column membership;
//  (b) continuous model: recursive structure (nested prefixes of the
//      performance order, Remark 1);
//  (c) continuous + filling (Remark 2): closely resembles (a).
//
// Rows are budgets w, columns are attributes ordered by performance order;
// '#' marks DRAM residence.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "selection/selectors.h"
#include "workload/example1.h"

using namespace hytap;

namespace {

void PrintMatrix(const char* title,
                 const std::vector<std::pair<double, std::vector<uint8_t>>>&
                     allocations,
                 const std::vector<uint32_t>& column_order) {
  std::printf("\n(%s)\n        ", title);
  std::printf("columns in performance order ->\n");
  for (const auto& [w, x] : allocations) {
    std::printf("w=%4.2f  ", w);
    for (uint32_t c : column_order) std::printf("%c", x[c] ? '#' : '.');
    std::printf("\n");
  }
}

}  // namespace

int main() {
  Example1Params gen;
  gen.num_columns = 40;
  gen.num_queries = 300;
  gen.seed = 11;
  Workload workload = GenerateExample1(gen);
  const ScanCostParams params{1.0, 100.0};

  SelectionProblem base;
  base.workload = &workload;
  base.params = params;
  ExplicitFrontier frontier = ComputeExplicitFrontier(base);
  std::vector<uint32_t> order;
  for (const FrontierPoint& point : frontier.points) {
    order.push_back(point.column);
  }
  // Columns never worth selecting come last.
  std::vector<bool> in_order(workload.column_count(), false);
  for (uint32_t c : order) in_order[c] = true;
  for (uint32_t c = 0; c < workload.column_count(); ++c) {
    if (!in_order[c]) order.push_back(c);
  }

  bench::PrintHeader("Figure 6: solution structure across budgets");
  std::vector<double> budgets;
  for (double w = 0.05; w <= 0.95; w += 0.09) budgets.push_back(w);

  std::vector<std::pair<double, std::vector<uint8_t>>> integer_rows,
      continuous_rows, filling_rows;
  for (double w : budgets) {
    auto problem =
        SelectionProblem::FromRelativeBudget(workload, params, w);
    integer_rows.emplace_back(w, SelectIntegerOptimal(problem).in_dram);
    continuous_rows.emplace_back(
        w, SelectExplicit(problem, /*filling=*/false).in_dram);
    filling_rows.emplace_back(
        w, SelectExplicit(problem, /*filling=*/true).in_dram);
  }
  PrintMatrix("a: optimal integer solutions", integer_rows, order);
  PrintMatrix("b: continuous solutions - recursive prefixes",
              continuous_rows, order);
  PrintMatrix("c: continuous solutions with filling (Remark 2)",
              filling_rows, order);

  // Quantify the paper's claims: (b) is strictly nested; (c) approximates
  // (a) better than (b).
  size_t nested_violations = 0;
  for (size_t r = 1; r < continuous_rows.size(); ++r) {
    for (size_t c = 0; c < workload.column_count(); ++c) {
      if (continuous_rows[r - 1].second[c] > continuous_rows[r].second[c]) {
        ++nested_violations;
      }
    }
  }
  double cost_gap_b = 0, cost_gap_c = 0;
  CostModel model(workload, params);
  for (size_t r = 0; r < budgets.size(); ++r) {
    const double integer = model.ScanCost(integer_rows[r].second);
    cost_gap_b += model.ScanCost(continuous_rows[r].second) / integer;
    cost_gap_c += model.ScanCost(filling_rows[r].second) / integer;
  }
  std::printf("\nnesting violations in (b): %zu (Remark 1 predicts 0)\n",
              nested_violations);
  std::printf("mean cost vs integer optimum: (b) %.3fx, (c) %.3fx "
              "(filling closes the gap)\n",
              cost_gap_b / budgets.size(), cost_gap_c / budgets.size());
  return 0;
}
