#ifndef HYTAP_CORE_ADVISOR_H_
#define HYTAP_CORE_ADVISOR_H_

#include <vector>

#include "core/tiered_table.h"
#include "selection/selectors.h"

namespace hytap {

/// Advisor options.
struct AdvisorOptions {
  ScanCostParams cost_params;
  /// Columns to pin in DRAM (e.g., primary keys / SLA-critical attributes).
  std::vector<ColumnId> pinned_columns;
  /// Opt-in online calibration (DESIGN.md §12): Recommend() replaces
  /// `cost_params` with the fitted c_mm/c_ss of the table's calibrator.
  bool use_calibrated_params = false;
};

/// Recommendation produced by the advisor.
struct Recommendation {
  std::vector<bool> in_dram;
  SelectionResult selection;
  Workload workload;  // the workload snapshot the decision was based on
  /// The scan-cost parameters the decision used (the options' static params
  /// or the calibrator's fitted ones when opted in).
  ScanCostParams params_used;
};

/// The autonomous column selection driver (paper Fig. 2): reads the table's
/// plan cache, builds the workload model, runs the explicit selection
/// (Theorem 2 with Remark-2 filling) for the given DRAM budget, and
/// (optionally) applies the placement.
class Advisor {
 public:
  explicit Advisor(AdvisorOptions options = {});

  /// Recommends a placement for an absolute DRAM budget in bytes.
  Recommendation Recommend(const TieredTable& table,
                           double budget_bytes) const;

  /// Recommends for a relative budget w in [0, 1] of the table's total
  /// main-partition DRAM footprint.
  Recommendation RecommendRelative(const TieredTable& table, double w) const;

  /// Recommends and applies; returns migrated bytes.
  StatusOr<uint64_t> Apply(TieredTable* table, double budget_bytes) const;

  const AdvisorOptions& options() const { return options_; }

 private:
  AdvisorOptions options_;
};

}  // namespace hytap

#endif  // HYTAP_CORE_ADVISOR_H_
