// Ablations of the design choices called out in DESIGN.md:
//  (1) selection interaction on/off - why counting filter frequencies
//      mis-ranks columns in columnar engines (paper §I-B);
//  (2) Remark-2 filling on/off - budget utilization of the explicit order;
//  (3) reallocation cost beta sweep - movement volume vs performance
//      (paper §III-D);
//  (4) scan->probe switch threshold - query latency on tiered data
//      (paper §II-B).

#include <cstdio>

#include "bench/bench_util.h"
#include "common/random.h"
#include "core/tiered_table.h"
#include "selection/selectors.h"
#include "storage/disk_column.h"
#include "workload/example1.h"
#include "workload/tpcc.h"

using namespace hytap;

namespace {

void AblateSelectionInteraction() {
  bench::PrintHeader("(1) selection interaction on/off");
  std::printf("%6s %18s %18s %12s\n", "w", "with interaction",
              "without (freq-count)", "penalty");
  Example1Params gen;
  gen.seed = 3;
  Workload workload = GenerateExample1(gen);
  const ScanCostParams params{1.0, 100.0};
  CostModel truth(workload, params, /*selection_interaction=*/true);
  for (double w : {0.2, 0.4, 0.6}) {
    auto problem = SelectionProblem::FromRelativeBudget(workload, params, w);
    auto informed = SelectIntegerOptimal(problem);
    // "Without": rank columns by a model that ignores the discount (all
    // selectivities treated as 1), then evaluate the chosen allocation under
    // the true cost model.
    Workload no_discount = workload;
    for (double& s : no_discount.selectivities) s = 1.0;
    auto naive_problem =
        SelectionProblem::FromRelativeBudget(no_discount, params, w);
    naive_problem.budget_bytes = problem.budget_bytes;
    auto uninformed = SelectIntegerOptimal(naive_problem);
    const double informed_cost = truth.ScanCost(informed.in_dram);
    const double uninformed_cost = truth.ScanCost(uninformed.in_dram);
    std::printf("%6.1f %18.3g %18.3g %11.2fx\n", w, informed_cost,
                uninformed_cost, uninformed_cost / informed_cost);
  }
}

void AblateFilling() {
  bench::PrintHeader("(2) Remark-2 filling on/off");
  std::printf("%6s %16s %16s %16s\n", "w", "prefix-only cost",
              "with filling", "budget used (fill)");
  Example1Params gen;
  gen.seed = 3;
  Workload workload = GenerateExample1(gen);
  const ScanCostParams params{1.0, 100.0};
  for (double w : {0.1, 0.25, 0.5}) {
    auto problem = SelectionProblem::FromRelativeBudget(workload, params, w);
    auto strict = SelectExplicit(problem, /*filling=*/false);
    auto filled = SelectExplicit(problem, /*filling=*/true);
    std::printf("%6.2f %16.3g %16.3g %15.1f%%\n", w, strict.scan_cost,
                filled.scan_cost,
                100.0 * filled.dram_bytes / problem.budget_bytes);
  }
}

void AblateBeta() {
  bench::PrintHeader("(3) reallocation cost beta sweep");
  std::printf("%10s %14s %18s\n", "beta", "moved bytes", "scan cost");
  Example1Params gen;
  gen.seed = 3;
  Workload workload = GenerateExample1(gen);
  const ScanCostParams params{1.0, 100.0};
  // Current allocation: optimum for a drifted variant of the workload.
  Example1Params drift = gen;
  drift.seed = 77;
  Workload drifted = GenerateExample1(drift);
  drifted.column_sizes = workload.column_sizes;
  drifted.selectivities = workload.selectivities;
  auto old_problem =
      SelectionProblem::FromRelativeBudget(drifted, params, 0.4);
  auto current = SelectIntegerOptimal(old_problem).in_dram;
  for (double beta : {0.0, 5.0, 20.0, 100.0, 1e4}) {
    auto problem = SelectionProblem::FromRelativeBudget(workload, params, 0.4);
    problem.current = current;
    problem.beta = beta;
    auto result = SelectIntegerOptimal(problem);
    double moved = 0;
    for (size_t i = 0; i < current.size(); ++i) {
      if (result.in_dram[i] != current[i]) moved += workload.column_sizes[i];
    }
    std::printf("%10.0f %13.1f MB %18.3g\n", beta, moved / 1e6,
                result.scan_cost);
  }
  std::printf("-> higher beta trades scan performance for fewer moves; "
              "beyond a point the placement freezes.\n");
}

void AblateProbeThreshold() {
  bench::PrintHeader("(4) scan->probe switch threshold (CH-19 on tiered "
                     "ol_quantity)");
  std::printf("%14s %16s\n", "threshold", "CH-19 latency");
  OrderlineParams params;
  params.warehouses = 4;
  params.orders_per_district = 60;
  const auto rows = GenerateOrderlineRows(params);
  for (double threshold : {1.0, 0.01, 1e-4, 1e-8}) {
    TieredTableOptions options;
    options.device = DeviceKind::kCssd;
    options.probe_threshold = threshold;
    TieredTable table("orderline", OrderlineSchema(), options);
    table.Load(rows);
    std::vector<bool> placement(10, false);
    for (ColumnId c : OrderlinePrimaryKey()) placement[c] = true;
    placement[kOlIId] = true;
    if (!table.ApplyPlacement(placement).ok()) return;
    Transaction txn = table.Begin();
    QueryResult r =
        table.ExecuteUnrecorded(txn, ChQuery19(1, 1, 250, 1, 1));
    std::printf("%14.0e %13.2f ms\n", threshold,
                double(r.io.TotalNs()) / 1e6);
  }
  std::printf("-> threshold 1 always probes (random reads); tiny thresholds "
              "always scan the group; the default 0.01%% picks per-query.\n");
}

void AblateSecondaryFormat() {
  // Paper §II-A motivation: "a full tuple reconstruction from a disk-
  // resident and dictionary-encoded column store reads at least 800 KB from
  // disk (100 accesses to both value vector and dictionary with 4 KB reads
  // each). In contrast ... SSCGs ... require only single 4 KB page accesses."
  bench::PrintHeader("(5) secondary-storage format: SSCG vs disk column "
                     "store (100-attribute tuple, CSSD)");
  const size_t attrs = 100;
  const size_t rows = 20000;
  Schema schema;
  for (size_t c = 0; c < attrs; ++c) {
    schema.push_back({"c" + std::to_string(c), DataType::kInt32, 0});
  }
  Rng rng(5);
  std::vector<Row> data;
  data.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    for (size_t c = 0; c < attrs; ++c) {
      row.emplace_back(int32_t(rng.NextBounded(rows)));
    }
    data.push_back(std::move(row));
  }
  SecondaryStore store(DeviceKind::kCssd);
  std::vector<DiskColumn> columns;
  for (size_t c = 0; c < attrs; ++c) {
    std::vector<Value> values;
    values.reserve(rows);
    for (size_t r = 0; r < rows; ++r) values.push_back(data[r][c]);
    columns.emplace_back(schema[c], values, &store);
  }
  std::vector<ColumnId> members;
  for (ColumnId c = 0; c < attrs; ++c) members.push_back(c);
  Sscg sscg(RowLayout(schema, members), data, &store);

  BufferManager cold_disk(&store, 8), cold_sscg(&store, 8);
  IoStats disk_io, sscg_io;
  const int reconstructions = 50;
  for (int i = 0; i < reconstructions; ++i) {
    const RowId row = rng.NextBounded(rows);
    for (size_t c = 0; c < attrs; ++c) {
      columns[c].GetValue(row, &cold_disk, 1, &disk_io);
    }
    sscg.ReconstructTuple(row, &cold_sscg, 1, &sscg_io);
  }
  std::printf("%-26s %14s %14s %14s\n", "format", "page reads",
              "bytes read", "mean latency");
  std::printf("%-26s %14.1f %11.1f KB %11.2f ms\n", "disk column store",
              double(disk_io.page_reads) / reconstructions,
              double(disk_io.page_reads) * kPageSize / 1024 /
                  reconstructions,
              double(disk_io.TotalNs()) / reconstructions / 1e6);
  std::printf("%-26s %14.1f %11.1f KB %11.2f ms\n", "SSCG (row group)",
              double(sscg_io.page_reads) / reconstructions,
              double(sscg_io.page_reads) * kPageSize / 1024 /
                  reconstructions,
              double(sscg_io.TotalNs()) / reconstructions / 1e6);
  std::printf("-> the paper's ~200 4 KB accesses (value vector + dictionary "
              "per attribute) vs one page for the row-oriented SSCG.\n");
}

}  // namespace

int main() {
  AblateSelectionInteraction();
  AblateFilling();
  AblateBeta();
  AblateProbeThreshold();
  AblateSecondaryFormat();
  return 0;
}
