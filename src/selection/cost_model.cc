#include "selection/cost_model.h"

#include <algorithm>

#include "common/assert.h"

namespace hytap {

CostModel::CostModel(const Workload& workload, ScanCostParams params,
                     bool selection_interaction)
    : workload_(&workload),
      params_(params),
      selection_interaction_(selection_interaction) {
  HYTAP_ASSERT(params.c_mm > 0.0 && params.c_ss > 0.0,
               "cost parameters must be positive");
  workload.Check();
  const size_t n = workload.column_count();
  // s_coeff_ first accumulates each column's weighted access mass
  // sum_j b_j * D_{j,i}, then turns into S_i in place below.
  s_coeff_.assign(n, 0.0);

  // For each query, order its columns by ascending selectivity (ties by
  // index: a fixed deterministic execution order) and accumulate the
  // discounted access mass b_j * a-independent D_{j,i} onto each column.
  std::vector<uint32_t> cols;
  for (const QueryTemplate& q : workload.queries) {
    cols.assign(q.columns.begin(), q.columns.end());
    std::sort(cols.begin(), cols.end(), [&](uint32_t a, uint32_t b) {
      const double sa = workload.selectivities[a];
      const double sb = workload.selectivities[b];
      if (sa != sb) return sa < sb;
      return a < b;
    });
    double discount = 1.0;
    for (uint32_t c : cols) {
      s_coeff_[c] += q.frequency * discount;
      if (selection_interaction_) discount *= workload.selectivities[c];
    }
  }

  all_dram_cost_ = 0.0;
  all_secondary_cost_ = 0.0;
  total_bytes_ = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double mass = s_coeff_[i];
    const double accessed = workload.column_sizes[i] * mass;
    s_coeff_[i] = (params_.c_mm - params_.c_ss) * mass;
    all_dram_cost_ += params_.c_mm * accessed;
    all_secondary_cost_ += params_.c_ss * accessed;
    total_bytes_ += workload.column_sizes[i];
  }
}

double CostModel::ScanCost(const std::vector<uint8_t>& in_dram) const {
  HYTAP_ASSERT(in_dram.size() == workload_->column_count(),
               "allocation arity mismatch");
  double cost = all_secondary_cost_;
  for (size_t i = 0; i < in_dram.size(); ++i) {
    if (in_dram[i]) cost += workload_->column_sizes[i] * s_coeff_[i];
  }
  return cost;
}

double CostModel::ScanCostContinuous(const std::vector<double>& x) const {
  HYTAP_ASSERT(x.size() == workload_->column_count(),
               "allocation arity mismatch");
  double cost = all_secondary_cost_;
  for (size_t i = 0; i < x.size(); ++i) {
    cost += x[i] * workload_->column_sizes[i] * s_coeff_[i];
  }
  return cost;
}

double CostModel::MemoryUsed(const std::vector<uint8_t>& in_dram) const {
  HYTAP_ASSERT(in_dram.size() == workload_->column_count(),
               "allocation arity mismatch");
  double bytes = 0.0;
  for (size_t i = 0; i < in_dram.size(); ++i) {
    if (in_dram[i]) bytes += workload_->column_sizes[i];
  }
  return bytes;
}

}  // namespace hytap
