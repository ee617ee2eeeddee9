// hytap-workload-gen: generates reproducible workload files.
//
// Usage:
//   workload_gen_cli example1 [--columns N] [--queries Q] [--seed S]
//   workload_gen_cli enterprise <BSEG|ACDOCA|VBAP|BKPF|COEP> [--seed S]
//
// Output goes to stdout in the `hytap-workload v1` format.

#include <cstdint>
#include <cstdio>
#include <string>

#include "io/workload_io.h"
#include "tools/cli_flags.h"
#include "workload/enterprise.h"
#include "workload/example1.h"

using namespace hytap;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: workload_gen_cli example1 [--columns N] [--queries Q]"
               " [--seed S]\n"
               "       workload_gen_cli enterprise <TABLE> [--seed S]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string kind = argv[1];
  uint64_t seed = 1;
  if (kind == "example1") {
    Example1Params params;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--columns") {
        if (!NextNumber(argc, argv, &i, &params.num_columns)) return Usage();
      } else if (arg == "--queries") {
        if (!NextNumber(argc, argv, &i, &params.num_queries)) return Usage();
      } else if (arg == "--seed") {
        if (!NextNumber(argc, argv, &i, &params.seed)) return Usage();
      } else {
        return Usage();
      }
    }
    if (params.num_columns < 2) {
      std::fprintf(stderr, "example1 needs --columns >= 2\n");
      return Usage();
    }
    std::fputs(SerializeWorkload(GenerateExample1(params)).c_str(), stdout);
    return 0;
  }
  if (kind == "enterprise") {
    if (argc < 3) return Usage();
    const std::string table = argv[2];
    for (int i = 3; i < argc; ++i) {
      if (std::string(argv[i]) != "--seed" ||
          !NextNumber(argc, argv, &i, &seed)) {
        return Usage();
      }
    }
    for (const EnterpriseProfile& profile : SapErpProfiles()) {
      if (profile.table_name == table) {
        std::fputs(
            SerializeWorkload(GenerateEnterpriseWorkload(profile, seed))
                .c_str(),
            stdout);
        return 0;
      }
    }
    std::fprintf(stderr, "unknown table: %s\n", table.c_str());
    return 1;
  }
  return Usage();
}
