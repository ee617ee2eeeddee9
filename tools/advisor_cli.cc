// hytap-advisor: column selection from a workload file.
//
// Usage:
//   advisor_cli <workload-file> [--budget <w>] [--algorithm explicit|
//       integer|greedy|h1|h2|h3] [--c-mm <x>] [--c-ss <x>] [--csv]
//
// Reads a `hytap-workload v1` file (see src/io/workload_io.h), runs the
// selected algorithm for the relative DRAM budget w, and prints the chosen
// allocation plus model statistics.

#include <cstdio>
#include <string>

#include "io/workload_io.h"
#include "selection/heuristics.h"
#include "selection/selectors.h"
#include "tools/cli_flags.h"

using namespace hytap;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: advisor_cli <workload-file> [--budget <w>] [--algorithm "
      "explicit|integer|greedy|h1|h2|h3] [--c-mm <x>] [--c-ss <x>] "
      "[--csv]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string path = argv[1];
  double budget_w = 0.5;
  std::string algorithm = "explicit";
  ScanCostParams params;
  bool csv = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--budget") {
      if (!NextNumber(argc, argv, &i, &budget_w)) return Usage();
    } else if (arg == "--algorithm") {
      if (i + 1 >= argc) return Usage();
      algorithm = argv[++i];
    } else if (arg == "--c-mm") {
      if (!NextNumber(argc, argv, &i, &params.c_mm)) return Usage();
    } else if (arg == "--c-ss") {
      if (!NextNumber(argc, argv, &i, &params.c_ss)) return Usage();
    } else if (arg == "--csv") {
      csv = true;
    } else {
      return Usage();
    }
  }
  if (budget_w < 0.0 || budget_w > 1.0) {
    std::fprintf(stderr, "budget must be in [0, 1]\n");
    return Usage();
  }
  if (params.c_mm <= 0.0 || params.c_ss <= 0.0) {
    std::fprintf(stderr, "--c-mm and --c-ss must be > 0\n");
    return Usage();
  }

  StatusOr<Workload> workload = ReadWorkloadFile(path);
  if (!workload.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  workload->Check();
  auto problem =
      SelectionProblem::FromRelativeBudget(*workload, params, budget_w);
  SelectionResult result;
  if (algorithm == "explicit") {
    result = SelectExplicit(problem);
  } else if (algorithm == "integer") {
    result = SelectIntegerOptimal(problem);
  } else if (algorithm == "greedy") {
    result = SelectGreedyMarginal(problem);
  } else if (algorithm == "h1") {
    result = SelectHeuristic(problem, HeuristicKind::kH1Frequency);
  } else if (algorithm == "h2") {
    result = SelectHeuristic(problem, HeuristicKind::kH2Selectivity);
  } else if (algorithm == "h3") {
    result = SelectHeuristic(problem, HeuristicKind::kH3SelectivityPerFreq);
  } else {
    return Usage();
  }

  if (csv) {
    std::fputs(AllocationToCsv(result, *workload).c_str(), stdout);
    return 0;
  }
  CostModel model(*workload, params);
  std::printf("workload: %zu columns, %zu query templates, %.1f MB total\n",
              workload->column_count(), workload->query_count(),
              workload->TotalBytes() / 1e6);
  std::printf("algorithm: %s   budget: w = %.3f (%.1f MB)\n",
              algorithm.c_str(), budget_w, problem.budget_bytes / 1e6);
  size_t in_dram = 0;
  for (uint8_t b : result.in_dram) in_dram += b;
  std::printf("selected %zu columns for DRAM (%.1f MB, %.1f%% evicted)\n",
              in_dram, result.dram_bytes / 1e6,
              100.0 * (1.0 - result.dram_bytes / workload->TotalBytes()));
  std::printf("relative performance: %.4f   solve time: %.3g s%s\n",
              model.RelativePerformance(result.in_dram),
              result.solve_seconds,
              result.optimal ? "" : "   (not proven optimal)");
  return 0;
}
