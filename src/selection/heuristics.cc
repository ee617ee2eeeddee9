#include "selection/heuristics.h"

#include <algorithm>
#include <chrono>

#include "common/assert.h"

namespace hytap {

const char* HeuristicName(HeuristicKind kind) {
  switch (kind) {
    case HeuristicKind::kH1Frequency:
      return "H1-frequency";
    case HeuristicKind::kH2Selectivity:
      return "H2-selectivity";
    case HeuristicKind::kH3SelectivityPerFreq:
      return "H3-selectivity/frequency";
  }
  return "unknown";
}

SelectionResult SelectHeuristic(const SelectionProblem& problem,
                                HeuristicKind kind) {
  const auto start = std::chrono::steady_clock::now();
  CostModel model(*problem.workload, problem.params);
  const Workload& workload = *problem.workload;
  const size_t n = workload.column_count();
  const std::vector<double> g = workload.ColumnFrequencies();

  std::vector<uint32_t> order;
  order.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const bool pinned = !problem.pinned.empty() && problem.pinned[i] != 0;
    if (g[i] > 0.0 && !pinned) order.push_back(static_cast<uint32_t>(i));
  }
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    switch (kind) {
      case HeuristicKind::kH1Frequency:
        return g[a] > g[b];
      case HeuristicKind::kH2Selectivity:
        return workload.selectivities[a] < workload.selectivities[b];
      case HeuristicKind::kH3SelectivityPerFreq:
        return workload.selectivities[a] / g[a] <
               workload.selectivities[b] / g[b];
    }
    HYTAP_UNREACHABLE("invalid heuristic kind");
  });

  // Filling rule: skip what does not fit, keep trying later columns.
  SelectionResult result = FinishResult(
      problem, model, FillInOrder(problem, order, /*filling=*/true));
  result.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace hytap
