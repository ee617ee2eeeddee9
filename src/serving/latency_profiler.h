#ifndef HYTAP_SERVING_LATENCY_PROFILER_H_
#define HYTAP_SERVING_LATENCY_PROFILER_H_

// Per-class SLO burn rates and deterministic latency attribution for served
// queries (DESIGN.md §17).
//
// The session manager feeds one terminal observation per ticket — in ticket
// order, from the reorder-buffer flush — carrying the ticket's simulated
// latency (its execution's IoStats::TotalNs()), its phase vector
// (common/phases.h) and, when tracing is on, its trace tree. Each
// observation is folded twice:
//
// - SLO burn rates, always. A ticket is bad when it failed, was shed, or
//   exceeded its class objective; cancellations are caller-initiated and
//   never judged. Verdicts are bucketed by workload-monitor window index.
//   Following the SRE multi-window pattern, the error budget is
//   (1e6 - target_ppm) / 1e6 and a class breaches when BOTH the fast span
//   (newest fast_windows windows) and the slow span (newest slow_windows)
//   burn at >= burn_threshold times budget. A breach fires a kSloBreach
//   flight event and an anomaly-triggered dump; recovery fires kSloClear.
// - Phase attribution, always. Per-class phase
//   histograms and, for tail tickets (over the class objective, failed, or
//   at/above the running interpolated p99), an *attribution*: phases ranked
//   by charge plus a critical-path walk down the trace tree (the child with
//   the largest inclusive simulated time at every level, with
//   est-vs-actual selectivities along the path).
//
// Everything is computed from simulated time in ticket order, so SLO state
// and reports are bit-identical across worker counts.

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/phases.h"
#include "common/trace.h"
#include "serving/session_manager.h"

namespace hytap {

class LatencyProfiler {
 public:
  struct Options {
    /// Latency objectives per class (simulated ns): a ticket over its class
    /// objective burns SLO budget and is a tail ticket. The OLTP objective
    /// reads HYTAP_SLO_OLTP_NS in FromEnv().
    uint64_t oltp_slo_ns = 2'000'000;      // 2 ms
    uint64_t olap_slo_ns = 2'000'000'000;  // 2 s
    /// Availability target in good-ticket ppm (HYTAP_SLO_TARGET_PPM in
    /// FromEnv(); default 999000 = 99.9 %, at most 999999).
    uint64_t target_ppm = 999'000;
    /// Breach when fast AND slow burn rates are >= this multiple of budget.
    double burn_threshold = 1.0;
    /// Window spans of the two burn evaluations (min 1 each, slow at least
    /// fast).
    size_t fast_windows = 1;
    size_t slow_windows = 8;
    /// Executed samples a class needs before the running-p99 tail criterion
    /// arms. The SLO-breach criterion is always armed.
    uint64_t min_tail_samples = 16;
    /// Retained attribution cap; beyond it attributions are counted as
    /// dropped, never silently discarded.
    size_t max_attributions = 64;

    /// The defaults with HYTAP_SLO_OLTP_NS and HYTAP_SLO_TARGET_PPM applied.
    static Options FromEnv();
  };

  /// One level of the critical-path walk over the trace tree.
  struct CriticalStep {
    std::string name;
    uint64_t inclusive_ns = 0;  // span's simulated_ns
    uint64_t exclusive_ns = 0;  // inclusive minus children's inclusive
    std::string est_selectivity;     // empty when the span isn't annotated
    std::string actual_selectivity;
  };

  /// Why a tail ticket was slow.
  struct Attribution {
    uint64_t ticket = 0;
    QueryClass cls = QueryClass::kOltp;
    StatusCode status = StatusCode::kOk;
    uint64_t latency_ns = 0;
    bool slo_breach = false;  // failed or over the class objective
    bool p99_tail = false;    // >= running interpolated p99 at observation
    PhaseVector phases;
    QueryPhase dominant = QueryPhase::kScanProbe;
    /// All phases ordered by descending charge (ties -> lower enum value).
    std::vector<QueryPhase> ranked;
    /// Root-to-leaf walk, empty when the ticket carried no trace.
    std::vector<CriticalStep> critical_path;
  };

  /// Per-class point-in-time aggregate for tests/CLIs.
  struct ClassSnapshot {
    /// Phase fold.
    uint64_t observations = 0;  // all terminal tickets
    uint64_t executed = 0;      // completed an execution (ok or failed)
    uint64_t shed = 0;          // terminal without executing (shed or
                                // cancelled while queued)
    uint64_t cancelled = 0;     // cancelled mid-execution; their partial
                                // accrual depends on stop-token timing, so
                                // they are counted but excluded from the
                                // deterministic phase/latency aggregates
    uint64_t failed = 0;        // executed with non-OK status
    uint64_t tail = 0;          // attributed tickets
    uint64_t latency_sum_ns = 0;
    PhaseVector phase_sum;
    uint64_t latency_p50_ns = 0;
    uint64_t latency_p99_ns = 0;
    uint64_t latency_p999_ns = 0;
    /// SLO state.
    uint64_t slo_observations = 0;  // judged tickets (all but cancellations)
    uint64_t violations = 0;        // bad tickets (failed, shed, or slow)
    double fast_burn = 0.0;
    double slow_burn = 0.0;
    bool breached = false;
    uint64_t breaches = 0;  // breach transitions so far
    uint64_t clears = 0;    // recovery transitions so far
  };

  explicit LatencyProfiler(Options options = Options::FromEnv());

  /// Feeds one terminal ticket. Must be called in ticket order (the serving
  /// flush guarantees this); internally serialized. `executed` is false for
  /// tickets shed or cancelled while still queued — their phase vector is
  /// all-zero and their latency 0. `window` is the workload-monitor window
  /// index at record time (windows_started()) and buckets SLO verdicts;
  /// with `sim_ns` it stamps flight events.
  void Observe(uint64_t ticket, QueryClass cls, StatusCode status,
               bool executed, uint64_t latency_ns, const PhaseVector& phases,
               const TraceSpan* trace, uint64_t window, uint64_t sim_ns);

  ClassSnapshot Snapshot(QueryClass cls) const;
  std::vector<Attribution> Attributions() const;
  uint64_t attributions_dropped() const;

  /// Deterministic human-readable report (per-class phase breakdown +
  /// retained tail attributions).
  std::string ReportText() const;
  /// Same content as a single JSON object.
  std::string ReportJson() const;

  /// Pushes the hytap_phase_* dominant/share gauges and the hytap_slo_*
  /// burn-rate/breached gauges into the metrics registry. Histograms and
  /// counters are updated inline by Observe().
  void ExportMetrics() const;

  const Options& options() const { return options_; }

  /// Clears all aggregates, attributions, SLO windows and breach latches.
  void Reset();

 private:
  struct WindowBucket {
    uint64_t index = 0;
    uint64_t good = 0;
    uint64_t bad = 0;
  };
  struct ClassState {
    uint64_t observations = 0;
    uint64_t executed = 0;
    uint64_t shed = 0;
    uint64_t cancelled = 0;
    uint64_t failed = 0;
    uint64_t tail = 0;
    uint64_t latency_sum_ns = 0;
    PhaseVector phase_sum;
    /// Executed-ticket latencies in fixed duration buckets; drives the
    /// running-p99 tail criterion and the report quantiles.
    MetricsSnapshot::HistogramData latencies;
    std::deque<WindowBucket> windows;  // SLO verdicts, oldest first
    uint64_t slo_observations = 0;
    uint64_t violations = 0;
    double fast_burn = 0.0;
    double slow_burn = 0.0;
    bool breached = false;
    uint64_t breaches = 0;
    uint64_t clears = 0;
  };

  uint64_t ObjectiveNs(QueryClass cls) const {
    return cls == QueryClass::kOltp ? options_.oltp_slo_ns
                                    : options_.olap_slo_ns;
  }
  double BurnOver(const ClassState& state, size_t span) const;
  /// Buckets one SLO verdict and fires breach/clear transitions.
  void ObserveSloLocked(QueryClass cls, bool bad, uint64_t window,
                        uint64_t sim_ns, uint64_t ticket);

  const Options options_;
  const double budget_;  // error budget fraction, floored at 1e-9

  mutable std::mutex mutex_;
  ClassState classes_[kQueryClassCount];
  std::vector<Attribution> attributions_;
  uint64_t dropped_ = 0;
};

}  // namespace hytap

#endif  // HYTAP_SERVING_LATENCY_PROFILER_H_
