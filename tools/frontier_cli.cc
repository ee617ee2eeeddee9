// hytap-frontier: prints the explicit Pareto frontier of a workload file as
// CSV (step, column, critical alpha, cumulative DRAM, scan cost), ready for
// plotting Figure-3-style efficient frontiers.
//
// Usage: frontier_cli <workload-file> [--c-mm <x>] [--c-ss <x>]

#include <cstdio>
#include <string>

#include "io/workload_io.h"
#include "selection/selectors.h"
#include "tools/cli_flags.h"

using namespace hytap;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: frontier_cli <workload-file> [--c-mm <x>] "
               "[--c-ss <x>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  ScanCostParams params;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--c-mm") {
      if (!NextNumber(argc, argv, &i, &params.c_mm)) return Usage();
    } else if (arg == "--c-ss") {
      if (!NextNumber(argc, argv, &i, &params.c_ss)) return Usage();
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (params.c_mm <= 0.0 || params.c_ss <= 0.0) {
    std::fprintf(stderr, "--c-mm and --c-ss must be > 0\n");
    return Usage();
  }
  StatusOr<Workload> workload = ReadWorkloadFile(argv[1]);
  if (!workload.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  SelectionProblem problem;
  problem.workload = &*workload;
  problem.params = params;
  ExplicitFrontier frontier = ComputeExplicitFrontier(problem);
  std::fputs(FrontierToCsv(frontier, *workload).c_str(), stdout);
  return 0;
}
