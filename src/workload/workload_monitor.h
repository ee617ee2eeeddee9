#ifndef HYTAP_WORKLOAD_WORKLOAD_MONITOR_H_
#define HYTAP_WORKLOAD_WORKLOAD_MONITOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"
#include "workload/workload.h"

namespace hytap {

class Table;

/// Workload-drift telemetry (DESIGN.md §12).
///
/// The executor feeds one QueryObservation per executed query — written
/// from the same step record as its trace spans — into a ring buffer of
/// fixed-width windows over the *simulated* clock. Each window tracks the
/// per-column access frequency g_i, the *observed* (not estimated)
/// selectivity per column, the scan-vs-probe mix, and per-template counts,
/// so the selection model can be re-evaluated against what the engine
/// actually ran instead of what the plan cache accumulated since forever.
///
/// The monitor is a pure observer: it reads finished results and IoStats,
/// never feeds back into execution, so results, IO counters, and fault
/// schedules are bit-identical with or without a monitor attached to the
/// executor (`workload_monitor_test` asserts this at 1/2/4 threads under
/// seeded faults). Every TieredTable attaches one; an executor without one
/// skips observation building.

/// Which access path one executed predicate step took (paper §II-B).
enum class StepKind : uint8_t { kIndex, kScan, kProbe, kRescan };

/// One executed predicate step, observed on the serial control path.
struct StepObservation {
  ColumnId column = 0;
  StepKind kind = StepKind::kScan;
  uint64_t candidates_in = 0;
  /// Surviving / incoming candidates — the measured (conditional)
  /// selectivity, which under the model's independence assumption samples
  /// the marginal s_i.
  double observed_selectivity = 0.0;
};

/// Everything the monitor, the plan cache and the cost calibrator read
/// about one executed query. Written by QueryExecutor::Execute from its
/// step record when a monitor is attached; reads only deterministic engine
/// state.
struct QueryObservation {
  /// Sorted, deduplicated filtered-column set — the plan-cache template key.
  std::vector<ColumnId> filtered_columns;
  std::vector<StepObservation> steps;
  /// Query totals (QueryResult::io).
  uint64_t simulated_ns = 0;
  uint64_t device_ns = 0;
  uint64_t page_reads = 0;
  /// Modeled DRAM bytes of the MRC scan steps (scaled by the surviving
  /// zone-map fraction) and the dram_ns they accrued (the bandwidth-shaped
  /// share of the query; probes and materialization charge per-touch costs
  /// that the scan-cost model does not cover). Secondary bytes are
  /// page_reads * kPageSize.
  uint64_t mm_bytes = 0;
  uint64_t mm_scan_ns = 0;
  bool failed = false;
};

/// Consumers of per-query observations beyond the monitor itself (the cost
/// calibrator). Forwarded under the monitor's serialization.
class QueryObservationSink {
 public:
  virtual ~QueryObservationSink() = default;
  virtual void Observe(const QueryObservation& observation) = 0;
};

/// Point-in-time copy of one workload window.
struct WorkloadWindowSnapshot {
  /// Monotonic window number since the monitor was created/reset.
  uint64_t index = 0;
  /// Simulated-clock start of the window (index * window_ns).
  uint64_t start_ns = 0;
  uint64_t queries = 0;
  uint64_t failures = 0;
  uint64_t index_steps = 0;
  uint64_t scan_steps = 0;
  uint64_t probe_steps = 0;
  uint64_t rescan_steps = 0;
  /// Total simulated ns of the queries recorded in this window.
  uint64_t simulated_ns = 0;
  /// Per-column weighted occurrence count g_i.
  std::vector<double> column_frequency;
  /// Per-column observed-selectivity accumulators (sum / sample count).
  std::vector<double> selectivity_sum;
  std::vector<uint64_t> selectivity_samples;
  /// Per-template execution counts (key = sorted filtered-column set).
  std::map<std::vector<ColumnId>, uint64_t> templates;

  /// Normalized column-frequency vector (sums to 1; empty share when the
  /// window saw no filtered column).
  std::vector<double> NormalizedFrequencies() const;
};

/// A serializable slice of the monitor's ring (see workload_io.h).
struct WorkloadWindowSeries {
  uint64_t window_ns = 0;
  size_t column_count = 0;
  std::vector<WorkloadWindowSnapshot> windows;  // oldest first
};

/// Total-variation distance between the normalized column-frequency vectors
/// of two windows, in [0, 1]. 0 = identical mix, 1 = disjoint column sets.
double WindowDistance(const WorkloadWindowSnapshot& a,
                      const WorkloadWindowSnapshot& b);

/// Aggregates the newest `recent` windows (0 = all) of a series into a
/// selection-model workload. Per-template counts sum across windows;
/// per-column selectivities are the sample means of the observed
/// selectivities, falling back to `fallback_selectivities` for columns
/// without samples. `column_sizes`/`names` come from the table (a_i).
Workload WindowsToWorkload(const WorkloadWindowSeries& series,
                           const std::vector<double>& column_sizes,
                           const std::vector<double>& fallback_selectivities,
                           const std::vector<std::string>& column_names,
                           size_t recent = 0);

/// Windowed workload time series over the simulated clock.
///
/// Thread-safe (internally serialized); in the engine it is only reached
/// from the executor's serial control path, so the ring content is
/// deterministic for a fixed query sequence and knob configuration.
class WorkloadMonitor {
 public:
  struct Options {
    /// Ring capacity in windows (min 2).
    size_t windows = 16;
    /// Window width on the simulated clock (default 1 s).
    uint64_t window_ns = 1'000'000'000;
  };

  explicit WorkloadMonitor(size_t column_count);
  WorkloadMonitor(size_t column_count, Options options);

  WorkloadMonitor(const WorkloadMonitor&) = delete;
  WorkloadMonitor& operator=(const WorkloadMonitor&) = delete;

  /// Records one executed query: advances the simulated clock by the
  /// query's simulated cost, rolling windows as boundaries are crossed, and
  /// forwards the observation to the attached sink (calibrator).
  void Record(const QueryObservation& observation);

  /// Forces the current window closed (epoch-style use: roll at a
  /// workload-phase boundary so each phase diagnoses cleanly).
  void ForceRoll();

  /// Optional downstream consumer (not owned); pass null to detach.
  void set_sink(QueryObservationSink* sink);

  const Options& options() const { return options_; }
  size_t column_count() const { return column_count_; }

  /// Simulated time accrued by all recorded queries.
  uint64_t now_ns() const;
  /// Live windows in the ring (<= options().windows).
  size_t window_count() const;
  /// Total windows ever started (1 after construction).
  uint64_t windows_started() const;
  /// Record() calls since construction or the last Reset().
  uint64_t queries_observed() const;

  /// Snapshot of live window `i` (0 = oldest, window_count()-1 = current).
  WorkloadWindowSnapshot Snapshot(size_t i) const;
  /// All live windows, oldest first, with the ring's geometry.
  WorkloadWindowSeries Export() const;

  /// Window-over-window drift: the WindowDistance between the two newest
  /// windows that saw at least one query (0 when fewer than two exist).
  double Drift() const;

  /// Aggregates the newest `recent` live windows (0 = all) into a workload,
  /// taking column sizes/names and fallback selectivities from `table`.
  Workload ToWorkload(const Table& table, size_t recent = 0) const;

  /// Drops all windows and restarts the simulated clock at zero.
  void Reset();

 private:
  /// Rolls windows until the current one covers `now_ns_` (caller holds
  /// the mutex).
  void RollLocked();

  const size_t column_count_;
  const Options options_;

  mutable std::mutex mutex_;
  std::deque<WorkloadWindowSnapshot> ring_;  // oldest first
  uint64_t now_ns_ = 0;
  uint64_t windows_started_ = 1;
  uint64_t queries_observed_ = 0;
  QueryObservationSink* sink_ = nullptr;
};

}  // namespace hytap

#endif  // HYTAP_WORKLOAD_WORKLOAD_MONITOR_H_
