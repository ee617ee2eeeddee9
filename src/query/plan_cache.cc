#include "query/plan_cache.h"

#include <algorithm>

namespace hytap {

namespace {

std::vector<ColumnId> TemplateKey(const Query& query) {
  std::vector<ColumnId> key;
  key.reserve(query.predicates.size());
  for (const Predicate& pred : query.predicates) key.push_back(pred.column);
  std::sort(key.begin(), key.end());
  key.erase(std::unique(key.begin(), key.end()), key.end());
  return key;
}

}  // namespace

void PlanCache::Record(const Query& query) {
  std::vector<ColumnId> key = TemplateKey(query);
  std::lock_guard<std::mutex> lock(mutex_);
  ++templates_[std::move(key)].count;
  ++total_;
}

void PlanCache::RecordObserved(const Query& query,
                               const QueryObservation& obs) {
  const std::vector<ColumnId> key = TemplateKey(query);
  std::lock_guard<std::mutex> lock(mutex_);
  TemplateStats& stats = templates_[key];
  ++stats.count;
  ++total_;
  if (stats.selectivity_sum.size() != key.size()) {
    stats.selectivity_sum.assign(key.size(), 0.0);
    stats.selectivity_samples.assign(key.size(), 0);
  }
  for (const StepObservation& step : obs.steps) {
    if (step.candidates_in == 0) continue;  // no sample without candidates
    auto it = std::lower_bound(key.begin(), key.end(), step.column);
    if (it == key.end() || *it != step.column) continue;
    const size_t slot = size_t(it - key.begin());
    stats.selectivity_sum[slot] += step.observed_selectivity;
    ++stats.selectivity_samples[slot];
  }
}

Workload PlanCache::ToWorkload(const Table& table) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Workload workload;
  const size_t n = table.column_count();
  workload.column_sizes.reserve(n);
  workload.selectivities.reserve(n);
  workload.column_names.reserve(n);
  // Per-column observed-selectivity sample means across all templates.
  std::vector<double> sel_sum(n, 0.0);
  std::vector<uint64_t> sel_samples(n, 0);
  for (const auto& [columns, stats] : templates_) {
    for (size_t i = 0;
         i < columns.size() && i < stats.selectivity_sum.size(); ++i) {
      if (columns[i] < n) {
        sel_sum[columns[i]] += stats.selectivity_sum[i];
        sel_samples[columns[i]] += stats.selectivity_samples[i];
      }
    }
  }
  for (ColumnId c = 0; c < n; ++c) {
    // Guard against zero-sized columns (empty tables) for model stability.
    workload.column_sizes.push_back(
        std::max<double>(1.0, double(table.ColumnDramBytes(c))));
    double s = sel_samples[c] > 0 ? sel_sum[c] / double(sel_samples[c])
                                  : table.SelectivityEstimate(c);
    // Observed selectivities can legitimately hit 0 (no survivor) or 1;
    // clamp into the cost model's (0, 1] domain.
    s = std::min(1.0, std::max(1e-9, s));
    workload.selectivities.push_back(s);
    workload.column_names.push_back(table.schema()[c].name);
  }
  workload.queries.reserve(templates_.size());
  for (const auto& [columns, stats] : templates_) {
    QueryTemplate tmpl;
    tmpl.columns.assign(columns.begin(), columns.end());
    tmpl.frequency = static_cast<double>(stats.count);
    workload.queries.push_back(std::move(tmpl));
  }
  workload.Check();
  return workload;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  templates_.clear();
  total_ = 0;
}

}  // namespace hytap
