#ifndef HYTAP_CORE_PLACEMENT_DOCTOR_H_
#define HYTAP_CORE_PLACEMENT_DOCTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/tiered_table.h"
#include "selection/selectors.h"
#include "solver/portfolio.h"

namespace hytap {

/// Placement-doctor configuration.
struct DoctorOptions {
  /// How many misplaced columns the report lists (largest cost delta first).
  size_t top_k = 8;
  /// Diagnose against the newest `recent_windows` monitor windows (0 = all
  /// live windows).
  size_t recent_windows = 0;
  /// Reference scan-cost parameters (ignored when `use_calibrated_params`).
  ScanCostParams cost_params;
  /// Use the table calibrator's fitted c_mm/c_ss instead of `cost_params`.
  bool use_calibrated_params = false;
  /// DRAM budget for the recommendation; < 0 means "what the current
  /// placement uses" (placement parity: regret compares equal-budget
  /// allocations, not a budget change).
  double budget_bytes = -1.0;
  /// Recommend through the anytime solver portfolio (the explicit and
  /// greedy walks, then exact B&B until `portfolio.budget_ms`) instead of
  /// the one-shot explicit solution; the report then carries the winner and
  /// its LP-bound gap, and the hytap_solver_* metrics are exercised.
  bool use_portfolio = false;
  PortfolioOptions portfolio = PortfolioOptions::FromEnv();
};

/// One column whose current tier disagrees with the recommendation.
struct MisplacedColumn {
  ColumnId column = 0;
  std::string name;
  bool in_dram_now = false;
  bool in_dram_recommended = false;
  uint64_t size_bytes = 0;
  /// Scan-cost impact of moving the column to its recommended tier:
  /// a_i * |S_i| on the diagnosed workload (the per-column term of the
  /// separable model, DESIGN.md §12).
  double cost_delta = 0.0;
};

/// What the doctor found (DESIGN.md §12): placement regret — F(current) vs
/// F(recommended) at the same DRAM budget on the observed workload — plus
/// the top-k misplaced columns.
struct DoctorReport {
  size_t windows_used = 0;
  uint64_t queries_observed = 0;
  /// Window-over-window drift of the monitor at diagnosis time.
  double drift = 0.0;
  double budget_bytes = 0.0;
  double current_dram_bytes = 0.0;
  double recommended_dram_bytes = 0.0;
  /// F(current), F(recommended), F(all-DRAM) under the diagnosis params.
  double current_cost = 0.0;
  double recommended_cost = 0.0;
  double all_dram_cost = 0.0;
  /// regret = F(current) - F(recommended) >= 0; regret_pct relative to
  /// F(recommended).
  double regret = 0.0;
  double regret_pct = 0.0;
  /// Params the diagnosis used, and the calibrator's current fit.
  ScanCostParams params_used;
  ScanCostParams fitted_params;
  bool calibrated = false;
  uint64_t calibration_samples = 0;
  /// Portfolio mode only: winning solver name, its gap vs the LP bound, and
  /// whether the deadline cut the exact search short.
  std::string solver_winner;
  double solver_gap = 0.0;
  bool solver_deadline_hit = false;
  std::vector<MisplacedColumn> misplaced;  // largest cost delta first

  /// Human-readable report.
  std::string ToText() const;
  /// Single JSON object (misplaced columns as an array).
  std::string ToJson() const;
};

/// Re-runs the Advisor's selection on the observed workload and scores the
/// live placement against it. Read-only: never migrates anything. Each
/// Diagnose() also refreshes the `hytap_doctor_*` gauges in the metrics
/// registry.
class PlacementDoctor {
 public:
  explicit PlacementDoctor(DoctorOptions options = {});

  DoctorReport Diagnose(const TieredTable& table) const;

  const DoctorOptions& options() const { return options_; }

 private:
  DoctorOptions options_;
};

}  // namespace hytap

#endif  // HYTAP_CORE_PLACEMENT_DOCTOR_H_
