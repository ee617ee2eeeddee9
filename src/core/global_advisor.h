#ifndef HYTAP_CORE_GLOBAL_ADVISOR_H_
#define HYTAP_CORE_GLOBAL_ADVISOR_H_

#include <string>
#include <vector>

#include "core/database.h"
#include "selection/selectors.h"

namespace hytap {

/// Database-wide placement for one table.
struct TablePlacement {
  std::string table;
  std::vector<bool> in_dram;
  double dram_bytes = 0.0;
};

/// Result of a global advisory run.
struct GlobalRecommendation {
  std::vector<TablePlacement> placements;
  SelectionResult selection;  // over the concatenated column space
  Workload joint_workload;
};

/// Places the columns of *all* tables of a database against one DRAM budget
/// (paper §III-G: "Enterprise systems often have thousands of tables. For
/// those systems, it is unrealistic to expect that the database
/// administrator will set memory budgets for each table manually. Our
/// presented solution is able to determine the optimal data placement for
/// thousands of attributes.").
///
/// The per-table workloads are concatenated into one joint column space and
/// solved with the explicit (Theorem 2) solution, so a byte of budget flows
/// to whichever table's column buys the most performance.
class GlobalAdvisor {
 public:
  explicit GlobalAdvisor(ScanCostParams params = {}) : params_(params) {}

  /// Recommends placements for an absolute DRAM budget over all tables.
  GlobalRecommendation Recommend(Database* db, double budget_bytes) const;

  /// Budget as a share w of the combined DRAM footprint of all tables.
  GlobalRecommendation RecommendRelative(Database* db, double w) const;

  /// Recommends and applies; returns total migrated bytes.
  StatusOr<uint64_t> Apply(Database* db, double budget_bytes) const;

 private:
  ScanCostParams params_;
};

}  // namespace hytap

#endif  // HYTAP_CORE_GLOBAL_ADVISOR_H_
