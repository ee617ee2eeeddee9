#ifndef HYTAP_SELECTION_COST_MODEL_H_
#define HYTAP_SELECTION_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "workload/workload.h"

namespace hytap {

/// Calibratable scan-cost parameters (paper §III-A): time to stream one byte
/// from main memory (c_mm) and from secondary storage (c_ss). Units are
/// arbitrary but consistent; defaults reflect ~10 GB/s DRAM scans vs a
/// ~500 MB/s NAND device at moderate queue depth.
struct ScanCostParams {
  double c_mm = 1.0;
  double c_ss = 150.0;
};

/// The bandwidth-centric scan-cost model with selection interaction
/// (paper §III-A, eqs. (1)-(2)).
///
/// Within each query, predicates execute in ascending selectivity order; the
/// cost of accessing column i is discounted by the product of the
/// selectivities of the columns already scanned:
///   f_j(x) = sum_{i in q_j} (x_i c_mm + (1-x_i) c_ss) * a_i * D_{j,i},
///   D_{j,i} = prod_{k in q_j : k scanned before i} s_k.
///
/// Because the predicate order is a workload property (independent of x),
/// F(x) is separable: F(x) = F(0) + sum_i x_i a_i S_i with
///   S_i = (c_mm - c_ss) * sum_{j : i in q_j} b_j D_{j,i} <= 0.
/// This separability is what makes the ILP a knapsack and enables the
/// explicit solution (Theorem 2).
class CostModel {
 public:
  CostModel(const Workload& workload, ScanCostParams params,
            bool selection_interaction = true);

  /// Per-byte utility coefficients S_i (all <= 0).
  const std::vector<double>& S() const { return s_coeff_; }

  /// Total scan cost F(x) for a 0/1 allocation (1 = DRAM).
  double ScanCost(const std::vector<uint8_t>& in_dram) const;

  /// Continuous overload (for LP-relaxation checks).
  double ScanCostContinuous(const std::vector<double>& x) const;

  /// F(1...1): everything in DRAM (the "minimal scan costs" reference used
  /// for the paper's relative-performance metric, §III-B).
  double AllDramCost() const { return all_dram_cost_; }
  /// F(0...0): everything on secondary storage.
  double AllSecondaryCost() const { return all_secondary_cost_; }

  /// Relative performance of an allocation: F(1)/F(x) in (0, 1].
  double RelativePerformance(const std::vector<uint8_t>& in_dram) const {
    return AllDramCost() / ScanCost(in_dram);
  }

  /// M(x): DRAM bytes used.
  double MemoryUsed(const std::vector<uint8_t>& in_dram) const;

  double TotalBytes() const { return total_bytes_; }

  const Workload& workload() const { return *workload_; }
  const ScanCostParams& params() const { return params_; }

  /// Whether the selectivity-product discount is applied (the ablation in
  /// DESIGN.md disables it to mimic frequency-counting models).
  bool selection_interaction() const { return selection_interaction_; }

 private:
  const Workload* workload_;
  ScanCostParams params_;
  bool selection_interaction_;
  std::vector<double> s_coeff_;  // S_i
  double all_dram_cost_;
  double all_secondary_cost_;
  double total_bytes_;
};

}  // namespace hytap

#endif  // HYTAP_SELECTION_COST_MODEL_H_
