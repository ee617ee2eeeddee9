#ifndef HYTAP_QUERY_PLAN_CACHE_H_
#define HYTAP_QUERY_PLAN_CACHE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "query/predicate.h"
#include "storage/table.h"
#include "workload/workload.h"
#include "workload/workload_monitor.h"

namespace hytap {

/// Records executed query templates for workload-driven column selection
/// (paper §I-B: "We separate attributes ... by analyzing the database's plan
/// cache"). A template is identified by the set of filtered columns; the
/// cache counts occurrences (b_j) and, when the workload monitor feeds it
/// observations, accumulates measured per-column selectivities so
/// ToWorkload() can use observed s_i instead of table-static estimates.
///
/// Thread-safe: recording and the exporting readers serialize on an internal
/// mutex, so concurrent serving sessions can record while a re-tiering pass
/// exports the workload.
class PlanCache {
 public:
  PlanCache() = default;

  /// Records one execution of `query` (counts only).
  void Record(const Query& query);

  /// Records one execution together with its observation: counts plus the
  /// measured per-column selectivities of the executed predicate steps.
  void RecordObserved(const Query& query, const QueryObservation& obs);

  /// Number of distinct templates.
  size_t template_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return templates_.size();
  }
  /// Total recorded executions.
  uint64_t total_executions() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_;
  }

  /// Exports the recorded workload for the selection model, taking column
  /// sizes a_i from `table` and selectivities s_i from observed-step sample
  /// means where available (falling back to the table-static estimate).
  Workload ToWorkload(const Table& table) const;

  void Clear();

 private:
  /// Per-template statistics: execution count (b_j) plus observed-
  /// selectivity accumulators aligned with the template's (sorted) column
  /// set.
  struct TemplateStats {
    uint64_t count = 0;
    /// Sum of observed per-column selectivities and how many step samples
    /// contributed, indexed like the template key. Empty until the first
    /// RecordObserved (plain Record carries no measurements).
    std::vector<double> selectivity_sum;
    std::vector<uint64_t> selectivity_samples;
  };

  // Key: sorted, deduplicated filtered-column set.
  std::map<std::vector<ColumnId>, TemplateStats> templates_;
  uint64_t total_ = 0;
  mutable std::mutex mutex_;
};

}  // namespace hytap

#endif  // HYTAP_QUERY_PLAN_CACHE_H_
