#include "selection/calibration.h"

#include "common/metrics.h"
#include "common/types.h"

namespace hytap {

namespace {

/// Residual-ratio buckets in percent: 100 = the reference parameters
/// predicted the observed time exactly; <100 = model overestimates, >100 =
/// model underestimates.
std::vector<uint64_t> ResidualRatioBuckets() {
  return {10, 25, 50, 75, 90, 100, 110, 125, 150, 200, 400, 1000};
}

/// Registry handles resolved once; updates gated on MetricsEnabled().
struct CalibrationMetrics {
  Counter* samples;
  HistogramMetric* dram_ratio_pct;
  HistogramMetric* secondary_ratio_pct;
  Gauge* fitted_c_mm_milli;
  Gauge* fitted_c_ss_milli;

  static CalibrationMetrics& Get() {
    static CalibrationMetrics metrics;
    return metrics;
  }

 private:
  CalibrationMetrics() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    samples = registry.GetCounter("hytap_calibration_samples_total");
    dram_ratio_pct =
        registry.GetHistogram("hytap_calibration_residual_ratio_pct_dram",
                              ResidualRatioBuckets());
    secondary_ratio_pct = registry.GetHistogram(
        "hytap_calibration_residual_ratio_pct_secondary",
        ResidualRatioBuckets());
    fitted_c_mm_milli = registry.GetGauge("hytap_calibration_c_mm_milli");
    fitted_c_ss_milli = registry.GetGauge("hytap_calibration_c_ss_milli");
  }
};

}  // namespace

CostCalibrator::CostCalibrator(ScanCostParams reference)
    : reference_(reference) {}

void CostCalibrator::Observe(const QueryObservation& observation) {
  // Secondary bytes streamed = pages actually read from the device (cache
  // hits cost DRAM touches, not device time, and the scan-cost model prices
  // the device stream). DRAM bytes/ns come from the MRC scan steps only —
  // the bandwidth-shaped share of the query that c_mm models; probe and
  // materialization touches are per-row costs outside the model.
  const uint64_t ss_bytes = observation.page_reads * kPageSize;
  double dram_ratio_pct = 0.0;
  double ss_ratio_pct = 0.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++sample_count_;
    if (observation.mm_bytes > 0) {
      dram_.observed_ns += observation.mm_scan_ns;
      dram_.bytes += observation.mm_bytes;
      ++dram_.samples;
      const double predicted = reference_.c_mm * double(observation.mm_bytes);
      if (predicted > 0.0) {
        dram_ratio_pct = 100.0 * double(observation.mm_scan_ns) / predicted;
      }
    }
    if (ss_bytes > 0) {
      secondary_.observed_ns += observation.device_ns;
      secondary_.bytes += ss_bytes;
      ++secondary_.samples;
      const double predicted = reference_.c_ss * double(ss_bytes);
      if (predicted > 0.0) {
        ss_ratio_pct = 100.0 * double(observation.device_ns) / predicted;
      }
    }
  }
  CalibrationMetrics& metrics = CalibrationMetrics::Get();
  metrics.samples->Add();
  if (dram_ratio_pct > 0.0) {
    metrics.dram_ratio_pct->Observe(uint64_t(dram_ratio_pct + 0.5));
  }
  if (ss_ratio_pct > 0.0) {
    metrics.secondary_ratio_pct->Observe(uint64_t(ss_ratio_pct + 0.5));
  }
  const ScanCostParams fitted = Fitted();
  metrics.fitted_c_mm_milli->Set(int64_t(fitted.c_mm * 1000.0 + 0.5));
  metrics.fitted_c_ss_milli->Set(int64_t(fitted.c_ss * 1000.0 + 0.5));
}

ScanCostParams CostCalibrator::reference() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reference_;
}

void CostCalibrator::set_reference(ScanCostParams reference) {
  std::lock_guard<std::mutex> lock(mutex_);
  reference_ = reference;
}

ScanCostParams CostCalibrator::Fitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ScanCostParams fitted;
  fitted.c_mm = dram_.NsPerByte(reference_.c_mm);
  fitted.c_ss = secondary_.NsPerByte(reference_.c_ss);
  return fitted;
}

uint64_t CostCalibrator::sample_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sample_count_;
}

TierCalibration CostCalibrator::dram() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dram_;
}

TierCalibration CostCalibrator::secondary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return secondary_;
}

double CostCalibrator::DramResidualRatio() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const double predicted = reference_.c_mm * double(dram_.bytes);
  return predicted > 0.0 ? double(dram_.observed_ns) / predicted : 0.0;
}

double CostCalibrator::SecondaryResidualRatio() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const double predicted = reference_.c_ss * double(secondary_.bytes);
  return predicted > 0.0 ? double(secondary_.observed_ns) / predicted : 0.0;
}

void CostCalibrator::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  dram_ = TierCalibration();
  secondary_ = TierCalibration();
  sample_count_ = 0;
}

}  // namespace hytap
