#ifndef HYTAP_QUERY_EXECUTOR_H_
#define HYTAP_QUERY_EXECUTOR_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/phases.h"
#include "common/trace.h"
#include "query/predicate.h"
#include "storage/table.h"
#include "txn/transaction_manager.h"
#include "workload/workload_monitor.h"

namespace hytap {

/// Result of a query execution.
struct QueryResult {
  /// OK, or the first page-read failure hit by the execution (kUnavailable /
  /// kDataLoss). On error every data member below except `io` is empty: the
  /// query degrades to a clean failure with no partial results.
  Status status;
  /// Qualifying global row ids (main rows then delta rows, ascending within
  /// each partition).
  PositionList positions;
  /// Materialized projections (one row per position), if requested.
  std::vector<Row> rows;
  /// Aggregate results, aligned with Query::aggregates. Count results are
  /// int64 values; sums are doubles; min/max carry the column type.
  std::vector<Value> aggregate_values;
  /// Simulated IO/DRAM cost of the execution.
  IoStats io;
  /// Candidate count after each executed predicate (execution order), for
  /// diagnostics and tests of the predicate-ordering logic.
  std::vector<size_t> candidate_trace;
  /// Operator/step tree of this execution, populated while `TraceEnabled()`
  /// and by Explain() (null otherwise). Kept even when `status` is an
  /// error — the partial trace up to the failing step is the main
  /// diagnostic for failed queries. Shared so QueryResult stays cheaply
  /// copyable.
  std::shared_ptr<const TraceSpan> trace;
};

/// Per-execution options: the knobs a serving session threads through one
/// Execute() call. Default-constructed options reproduce the classic
/// synchronous single-query behavior exactly.
struct ExecOptions {
  /// Simulated workers (and real ParallelFor width).
  uint32_t threads = 1;
  /// Cancellation stop token (not owned; null = not cancellable). Polled at
  /// the executor's serial control points — between predicate steps and
  /// morsel batches, never inside kernels — so a cancelled query aborts with
  /// status kCancelled and no partial results.
  const std::atomic<bool>* stop = nullptr;
  /// Page-cache override for SSCG fetches (null = the table's shared cache).
  /// Serving sessions pass a private cold cache per query.
  BufferManager* buffers = nullptr;
  /// Bounds delta-partition scans to the first `delta_limit` rows (the delta
  /// size at submit time; rows beyond it are invisible to the snapshot).
  size_t delta_limit = SIZE_MAX;
  /// When non-null and a monitor is attached, Execute() fills this
  /// observation and sets *observation_filled instead of recording into the
  /// monitor — the serving layer replays observations in ticket order so the
  /// monitor's windows stay deterministic under concurrency.
  QueryObservation* observation = nullptr;
  bool* observation_filled = nullptr;
  /// When non-null, Execute() fills the per-phase decomposition of this
  /// query's simulated cost. The vector is derived purely from `result.io`
  /// at the pass boundaries, so its sum equals `result.io.TotalNs()`
  /// exactly — on success, cancellation, and fault paths alike (see
  /// DESIGN.md §17).
  PhaseVector* phases = nullptr;
};

/// Execute() plus rendered trace — what EXPLAIN ANALYZE returns.
struct ExplainResult {
  QueryResult result;
  /// Human-readable operator tree (RenderTraceText).
  std::string text;
  /// Machine-readable operator tree (RenderTraceJson).
  std::string json;
};

/// Placement-aware query executor (paper §II-B).
///
/// Non-indexed filters execute in an order determined first by column
/// location (DRAM-resident before secondary storage) and second by ascending
/// selectivity (1/distinct-count). Each predicate after the first consumes
/// the previous position list; the executor switches from scanning to probing
/// once the fraction of remaining candidates drops below `probe_threshold`
/// (paper default: 0.01 % of the table's tuples).
class QueryExecutor {
 public:
  explicit QueryExecutor(const Table* table, double probe_threshold = 1e-4);

  /// Executes a conjunctive query under `txn`'s snapshot with `threads`
  /// simulated workers. Page-read failures surface via QueryResult::status
  /// with all result data cleared (`io` keeps the cost accrued up to the
  /// failure). The reported error is deterministic: page fetches happen in
  /// the serialized accounting passes, so the same query over the same store
  /// state reports the same failure at every thread count.
  QueryResult Execute(const Transaction& txn, const Query& query,
                      uint32_t threads = 1) const;

  /// Execute() with full per-session options (cancellation, private page
  /// cache, delta bound, observation hand-off). The executor itself is
  /// stateless across calls, so concurrent Execute() calls with disjoint
  /// ExecOptions are safe.
  QueryResult Execute(const Transaction& txn, const Query& query,
                      const ExecOptions& opts) const;

  /// Execute() with a trace of this call only — the process-wide
  /// HYTAP_TRACE switch is left untouched, so concurrent executions are
  /// unaffected — returning the result together with the rendered operator
  /// tree. The trace reports the chosen predicate order with estimated vs.
  /// actual selectivities, index usage, every scan-vs-probe decision
  /// (candidate fraction vs. threshold), and per-step pruning/IO counters
  /// that sum to the result's IoStats.
  ExplainResult Explain(const Transaction& txn, const Query& query,
                        uint32_t threads = 1) const;

  /// The predicate execution order for `query` (indices into
  /// query.predicates). Exposed for tests and the plan cache.
  std::vector<size_t> PredicateOrder(const Query& query) const;

  /// Attaches a workload monitor (not owned; pass null to detach). While
  /// attached, Execute() writes one QueryObservation per query from its
  /// step record — a pure observer of finished results and IoStats, so
  /// execution stays bit-identical with or without it — and feeds it to the
  /// monitor.
  void set_monitor(WorkloadMonitor* monitor) { monitor_ = monitor; }
  WorkloadMonitor* monitor() const { return monitor_; }

 private:
  /// Histogram-aware selectivity estimate for one predicate (falls back to
  /// 1/distinct when the table has no statistics).
  double EstimateSelectivity(const Predicate& pred) const;

  /// Chooses an index access path if one applies (paper §II-B); appends the
  /// predicate indices it answers to `used`.
  const MainIndex* PickIndex(const Query& query,
                             std::vector<size_t>* used) const;

  /// The ordered record of executed steps that the trace tree, the
  /// workload observation, the phase vector and the metrics are written
  /// from (defined in executor.cc).
  struct StepRecord;

  /// Execute(), traced when `trace` is set.
  QueryResult Run(const Transaction& txn, const Query& query,
                  const ExecOptions& opts, bool trace) const;

  /// The passes append their steps to `record`, only on these serial
  /// control paths, never inside worker morsels, so the record is invariant
  /// under the worker count.
  Status ExecuteMain(const Transaction& txn, const Query& query,
                     const std::vector<size_t>& order, const ExecOptions& opts,
                     QueryResult* result, StepRecord* record) const;
  void ExecuteDelta(const Transaction& txn, const Query& query,
                    const std::vector<size_t>& order, const ExecOptions& opts,
                    QueryResult* result, StepRecord* record) const;
  Status Materialize(const Query& query, const ExecOptions& opts,
                     QueryResult* result, StepRecord* record) const;

  const Table* table_;
  double probe_threshold_;
  WorkloadMonitor* monitor_ = nullptr;
};

}  // namespace hytap

#endif  // HYTAP_QUERY_EXECUTOR_H_
