// Reproduces Table I: "Analysis of attribute usage of the five largest
// tables of the financial module in a production SAP ERP system."
//
// The generators are calibrated to the published aggregate statistics; this
// bench re-derives the skew from the generated plan-cache workloads and
// prints the paper's table next to the measured values.

#include <cstdio>

#include "bench/bench_util.h"
#include "workload/enterprise.h"

using namespace hytap;

int main() {
  bench::PrintHeader(
      "Table I: attribute filtering skew of SAP ERP financial tables");
  std::printf("%-8s %12s | %10s %10s | %16s %16s\n", "Table", "Attributes",
              "Filtered", "(paper)", "Filtered >=1%", "(paper)");
  for (const EnterpriseProfile& profile : SapErpProfiles()) {
    Workload workload = GenerateEnterpriseWorkload(profile, /*seed=*/42);
    WorkloadSkew skew = AnalyzeSkew(workload, /*hot_share=*/0.01);
    std::printf("%-8s %12zu | %10zu %10zu | %16zu %16zu\n",
                profile.table_name.c_str(), workload.column_count(),
                skew.filtered_count, profile.filtered_count,
                skew.hot_filtered_count, profile.hot_filtered_count);
  }
  std::printf(
      "\nbytes never filtered (eligible for free eviction): "
      "BSEG-like tables ~%.0f%%\n",
      100.0 * AnalyzeSkew(GenerateEnterpriseWorkload(BsegProfile(), 42))
                  .unfiltered_byte_share);
  return 0;
}
