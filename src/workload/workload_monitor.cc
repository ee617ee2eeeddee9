#include "workload/workload_monitor.h"

#include <algorithm>

#include "common/assert.h"
#include "common/metrics.h"
#include "storage/table.h"

namespace hytap {

namespace {

/// Registry handles resolved once; updates gated on MetricsEnabled().
struct MonitorMetrics {
  Counter* queries;
  Counter* windows_rolled;
  Gauge* drift_pct;
  Gauge* drift_ppm;  // finer-grained drift for the re-tiering daemon
  Gauge* live_windows;

  static MonitorMetrics& Get() {
    static MonitorMetrics metrics;
    return metrics;
  }

 private:
  MonitorMetrics() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    queries = registry.GetCounter("hytap_workload_queries_observed_total");
    windows_rolled =
        registry.GetCounter("hytap_workload_windows_rolled_total");
    drift_pct = registry.GetGauge("hytap_workload_drift_pct");
    drift_ppm = registry.GetGauge("hytap_workload_drift");
    live_windows = registry.GetGauge("hytap_workload_live_windows");
  }
};

WorkloadWindowSnapshot EmptyWindow(uint64_t index, uint64_t start_ns,
                                   size_t columns) {
  WorkloadWindowSnapshot window;
  window.index = index;
  window.start_ns = start_ns;
  window.column_frequency.assign(columns, 0.0);
  window.selectivity_sum.assign(columns, 0.0);
  window.selectivity_samples.assign(columns, 0);
  return window;
}

/// Drift between the two newest non-empty windows of a ring (oldest-first
/// sequence); 0 when fewer than two such windows exist.
template <typename Windows>
double DriftOf(const Windows& windows) {
  const WorkloadWindowSnapshot* newest = nullptr;
  const WorkloadWindowSnapshot* previous = nullptr;
  for (auto it = windows.rbegin(); it != windows.rend(); ++it) {
    if (it->queries == 0) continue;
    if (newest == nullptr) {
      newest = &*it;
    } else {
      previous = &*it;
      break;
    }
  }
  if (newest == nullptr || previous == nullptr) return 0.0;
  return WindowDistance(*previous, *newest);
}

}  // namespace

std::vector<double> WorkloadWindowSnapshot::NormalizedFrequencies() const {
  double total = 0.0;
  for (double g : column_frequency) total += g;
  std::vector<double> normalized(column_frequency.size(), 0.0);
  if (total <= 0.0) return normalized;
  for (size_t i = 0; i < column_frequency.size(); ++i) {
    normalized[i] = column_frequency[i] / total;
  }
  return normalized;
}

double WindowDistance(const WorkloadWindowSnapshot& a,
                      const WorkloadWindowSnapshot& b) {
  const std::vector<double> pa = a.NormalizedFrequencies();
  const std::vector<double> pb = b.NormalizedFrequencies();
  const size_t n = std::max(pa.size(), pb.size());
  double distance = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double va = i < pa.size() ? pa[i] : 0.0;
    const double vb = i < pb.size() ? pb[i] : 0.0;
    distance += va > vb ? va - vb : vb - va;
  }
  return 0.5 * distance;  // total-variation distance
}

Workload WindowsToWorkload(const WorkloadWindowSeries& series,
                           const std::vector<double>& column_sizes,
                           const std::vector<double>& fallback_selectivities,
                           const std::vector<std::string>& column_names,
                           size_t recent) {
  const size_t n = column_sizes.size();
  HYTAP_ASSERT(fallback_selectivities.size() == n,
               "fallback selectivities must match column sizes");
  const size_t first = recent == 0 || recent >= series.windows.size()
                           ? 0
                           : series.windows.size() - recent;

  Workload workload;
  workload.column_sizes.reserve(n);
  workload.selectivities.reserve(n);
  workload.column_names = column_names;

  std::vector<double> sel_sum(n, 0.0);
  std::vector<uint64_t> sel_samples(n, 0);
  std::map<std::vector<ColumnId>, uint64_t> templates;
  for (size_t w = first; w < series.windows.size(); ++w) {
    const WorkloadWindowSnapshot& window = series.windows[w];
    for (size_t c = 0; c < n && c < window.selectivity_sum.size(); ++c) {
      sel_sum[c] += window.selectivity_sum[c];
      sel_samples[c] += window.selectivity_samples[c];
    }
    for (const auto& [columns, count] : window.templates) {
      templates[columns] += count;
    }
  }

  for (size_t c = 0; c < n; ++c) {
    workload.column_sizes.push_back(std::max(1.0, column_sizes[c]));
    double s = sel_samples[c] > 0 ? sel_sum[c] / double(sel_samples[c])
                                  : fallback_selectivities[c];
    // Observed selectivities can legitimately be 0 (no survivor) or reach
    // 1; clamp into the model's (0, 1] domain.
    s = std::min(1.0, std::max(1e-9, s));
    workload.selectivities.push_back(s);
  }
  workload.queries.reserve(templates.size());
  for (const auto& [columns, count] : templates) {
    if (columns.empty()) continue;  // unfiltered queries carry no scan term
    QueryTemplate tmpl;
    tmpl.columns.assign(columns.begin(), columns.end());
    tmpl.frequency = double(count);
    workload.queries.push_back(std::move(tmpl));
  }
  workload.Check();
  return workload;
}

WorkloadMonitor::WorkloadMonitor(size_t column_count)
    : WorkloadMonitor(column_count, Options()) {}

WorkloadMonitor::WorkloadMonitor(size_t column_count, Options options)
    : column_count_(column_count), options_(options) {
  HYTAP_ASSERT(options_.windows >= 2, "need at least two windows for drift");
  HYTAP_ASSERT(options_.window_ns >= 1, "window width must be positive");
  ring_.push_back(EmptyWindow(0, 0, column_count_));
}

void WorkloadMonitor::RollLocked() {
  // The current window covers [index * window_ns, (index+1) * window_ns).
  while (now_ns_ >= (ring_.back().index + 1) * options_.window_ns) {
    const uint64_t next = ring_.back().index + 1;
    ring_.push_back(
        EmptyWindow(next, next * options_.window_ns, column_count_));
    ++windows_started_;
    MonitorMetrics::Get().windows_rolled->Add();
    if (ring_.size() > options_.windows) ring_.pop_front();
  }
}

void WorkloadMonitor::Record(const QueryObservation& observation) {
  QueryObservationSink* sink = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // The query belongs to the window containing its start time.
    WorkloadWindowSnapshot& window = ring_.back();
    ++window.queries;
    if (observation.failed) ++window.failures;
    window.simulated_ns += observation.simulated_ns;
    for (ColumnId c : observation.filtered_columns) {
      if (c < window.column_frequency.size()) {
        window.column_frequency[c] += 1.0;
      }
    }
    for (const StepObservation& step : observation.steps) {
      switch (step.kind) {
        case StepKind::kIndex:
          ++window.index_steps;
          break;
        case StepKind::kScan:
          ++window.scan_steps;
          break;
        case StepKind::kProbe:
          ++window.probe_steps;
          break;
        case StepKind::kRescan:
          ++window.rescan_steps;
          break;
      }
      if (step.column < column_count_ && step.candidates_in > 0) {
        window.selectivity_sum[step.column] += step.observed_selectivity;
        ++window.selectivity_samples[step.column];
      }
    }
    if (!observation.filtered_columns.empty()) {
      ++window.templates[observation.filtered_columns];
    }
    now_ns_ += observation.simulated_ns;
    RollLocked();
    ++queries_observed_;
    MonitorMetrics& metrics = MonitorMetrics::Get();
    metrics.queries->Add();
    metrics.live_windows->Set(int64_t(ring_.size()));
    const double drift = DriftOf(ring_);
    metrics.drift_pct->Set(int64_t(drift * 100.0 + 0.5));
    metrics.drift_ppm->Set(int64_t(drift * 1e6 + 0.5));
    sink = sink_;
  }
  // Outside the lock: the sink serializes itself, and calling out while
  // holding mutex_ would deadlock a sink that reads the monitor back.
  if (sink != nullptr) sink->Observe(observation);
}

void WorkloadMonitor::ForceRoll() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Jump the clock to the next window boundary and open the new window.
  now_ns_ = (ring_.back().index + 1) * options_.window_ns;
  RollLocked();
}

void WorkloadMonitor::set_sink(QueryObservationSink* sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  sink_ = sink;
}

uint64_t WorkloadMonitor::now_ns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return now_ns_;
}

size_t WorkloadMonitor::window_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

uint64_t WorkloadMonitor::windows_started() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return windows_started_;
}

uint64_t WorkloadMonitor::queries_observed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queries_observed_;
}

WorkloadWindowSnapshot WorkloadMonitor::Snapshot(size_t i) const {
  std::lock_guard<std::mutex> lock(mutex_);
  HYTAP_ASSERT(i < ring_.size(), "window index out of range");
  return ring_[i];
}

WorkloadWindowSeries WorkloadMonitor::Export() const {
  std::lock_guard<std::mutex> lock(mutex_);
  WorkloadWindowSeries series;
  series.window_ns = options_.window_ns;
  series.column_count = column_count_;
  series.windows.assign(ring_.begin(), ring_.end());
  return series;
}

double WorkloadMonitor::Drift() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return DriftOf(ring_);
}

Workload WorkloadMonitor::ToWorkload(const Table& table, size_t recent) const {
  const size_t n = table.column_count();
  std::vector<double> sizes(n), fallback(n);
  std::vector<std::string> names(n);
  for (ColumnId c = 0; c < n; ++c) {
    sizes[c] = double(table.ColumnDramBytes(c));
    fallback[c] = table.SelectivityEstimate(c);
    names[c] = table.schema()[c].name;
  }
  return WindowsToWorkload(Export(), sizes, fallback, names, recent);
}

void WorkloadMonitor::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  ring_.push_back(EmptyWindow(0, 0, column_count_));
  now_ns_ = 0;
  windows_started_ = 1;
  queries_observed_ = 0;
}

}  // namespace hytap
