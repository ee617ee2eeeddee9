#ifndef HYTAP_CORE_ADVISOR_H_
#define HYTAP_CORE_ADVISOR_H_

#include <string>
#include <vector>

#include "core/tiered_table.h"
#include "selection/selectors.h"
#include "solver/portfolio.h"

namespace hytap {

class CostCalibrator;

/// Which selection algorithm the advisor runs.
enum class AdvisorAlgorithm {
  kExplicit,        // Theorem 2 + Remark-2 filling (default, scalable)
  kIntegerOptimal,  // exact branch-and-bound
  kGreedyMarginal,  // Remark 3
  kPortfolio,       // anytime race of all of the above under a deadline
};

/// Advisor options.
struct AdvisorOptions {
  AdvisorAlgorithm algorithm = AdvisorAlgorithm::kExplicit;
  ScanCostParams cost_params;
  /// Per-byte reallocation cost weight (0 = ignore current placement).
  double beta = 0.0;
  /// Columns to pin in DRAM (e.g., primary keys / SLA-critical attributes).
  std::vector<ColumnId> pinned_columns;
  /// Opt-in online calibration (DESIGN.md §12): when set together with
  /// `use_calibrated_params`, Recommend() replaces `cost_params` with the
  /// calibrator's fitted c_mm/c_ss. Report-only otherwise — attaching a
  /// calibrator alone changes nothing.
  const CostCalibrator* calibrator = nullptr;
  bool use_calibrated_params = false;
  /// Deadline/worker knobs for AdvisorAlgorithm::kPortfolio (the worker
  /// default reads HYTAP_SOLVER_THREADS).
  PortfolioOptions portfolio = PortfolioOptions::FromEnv();
};

/// Recommendation produced by the advisor.
struct Recommendation {
  std::vector<bool> in_dram;
  SelectionResult selection;
  Workload workload;  // the workload snapshot the decision was based on
  /// The scan-cost parameters the decision used (the options' static params
  /// or the calibrator's fitted ones when opted in).
  ScanCostParams params_used;
  /// kPortfolio only: the winning solver's name ("exact" / "explicit" /
  /// "greedy") and whether the deadline cut the race short.
  std::string winner;
  bool deadline_hit = false;
};

/// The autonomous column selection driver (paper Fig. 2): reads the table's
/// plan cache, builds the workload model, runs a selector for the given DRAM
/// budget, and (optionally) applies the placement.
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
