#include "core/advisor.h"

#include "common/assert.h"
#include "selection/calibration.h"

namespace hytap {

Advisor::Advisor(AdvisorOptions options) : options_(std::move(options)) {}

Recommendation Advisor::Recommend(const TieredTable& table,
                                  double budget_bytes) const {
  Recommendation rec;
  rec.workload = table.plan_cache().ToWorkload(table.table());
  rec.params_used = options_.use_calibrated_params
                        ? table.calibrator().Fitted()
                        : options_.cost_params;

  SelectionProblem problem;
  problem.workload = &rec.workload;
  problem.params = rec.params_used;
  problem.budget_bytes = budget_bytes;
  if (!options_.pinned_columns.empty()) {
    problem.pinned.assign(rec.workload.column_count(), 0);
    for (ColumnId c : options_.pinned_columns) {
      HYTAP_ASSERT(c < problem.pinned.size(), "pinned column out of range");
      problem.pinned[c] = 1;
    }
  }
  rec.selection = SelectExplicit(problem, /*filling=*/true);
  rec.in_dram.assign(rec.selection.in_dram.begin(),
                     rec.selection.in_dram.end());
  return rec;
}

Recommendation Advisor::RecommendRelative(const TieredTable& table,
                                          double w) const {
  HYTAP_ASSERT(w >= 0.0 && w <= 1.0, "relative budget must be in [0, 1]");
  double total = 0.0;
  for (ColumnId c = 0; c < table.table().column_count(); ++c) {
    total += double(table.table().ColumnDramBytes(c));
  }
  return Recommend(table, w * total);
}

StatusOr<uint64_t> Advisor::Apply(TieredTable* table,
                                  double budget_bytes) const {
  Recommendation rec = Recommend(*table, budget_bytes);
  return table->ApplyPlacement(rec.in_dram);
}

}  // namespace hytap
