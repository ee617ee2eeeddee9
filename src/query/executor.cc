#include "query/executor.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "common/assert.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "query/scan.h"

namespace hytap {

namespace {

/// Registry handles resolved once; updates are gated on MetricsEnabled().
struct QueryMetrics {
  Counter* queries;
  Counter* query_failures;
  Counter* index_lookups;
  Counter* probe_steps;
  Counter* scan_to_probe_switches;
  Counter* rescan_steps;
  HistogramMetric* query_sim_ns;
  HistogramMetric* query_result_rows;

  static QueryMetrics& Get() {
    static QueryMetrics metrics;
    return metrics;
  }

 private:
  QueryMetrics() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    queries = registry.GetCounter("hytap_query_executions_total");
    query_failures = registry.GetCounter("hytap_query_failures_total");
    index_lookups = registry.GetCounter("hytap_query_index_lookups_total");
    probe_steps = registry.GetCounter("hytap_query_probe_steps_total");
    scan_to_probe_switches =
        registry.GetCounter("hytap_query_scan_to_probe_switches_total");
    rescan_steps = registry.GetCounter("hytap_query_rescan_steps_total");
    query_sim_ns = registry.GetHistogram("hytap_query_simulated_ns",
                                         DurationNsBuckets());
    query_result_rows =
        registry.GetHistogram("hytap_query_result_rows", RowCountBuckets());
  }
};

/// Steady-clock ns for TraceSpan::wall_ns (only sampled while tracing).
uint64_t WallClockNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

/// candidates_out / candidates_in (0 without candidates).
double Selectivity(uint64_t candidates_in, uint64_t candidates_out) {
  return candidates_in == 0 ? 0.0
                            : double(candidates_out) / double(candidates_in);
}

/// Annotates the non-zero IoStats counter deltas `after - before`.
void AnnotateCounters(const IoStats& after, const IoStats& before,
                      TraceSpan* span) {
  auto annotate = [span](const char* key, uint64_t value) {
    if (value != 0) span->Annotate(key, std::to_string(value));
  };
  annotate("page_reads", after.page_reads - before.page_reads);
  annotate("cache_hits", after.cache_hits - before.cache_hits);
  annotate("retries", after.retries - before.retries);
  annotate("morsels_pruned", after.morsels_pruned - before.morsels_pruned);
  annotate("pages_pruned", after.pages_pruned - before.pages_pruned);
  annotate("checksum_failures",
           after.checksum_failures - before.checksum_failures);
  annotate("quarantined_pages",
           after.quarantined_pages - before.quarantined_pages);
}

}  // namespace

/// The ordered record of the steps one execution ran (DESIGN.md §11): the
/// main pass's predicate steps, the main pass itself, then the delta pass
/// and materialization. Every step appends exactly one entry when it ends,
/// on the serial control path only, so the record is invariant under the
/// worker count. After the passes, the trace tree, the workload
/// observation, the phase vector and the hytap_query_* counters are each
/// written from it by one function; none of them feeds back into execution.
struct QueryExecutor::StepRecord {
  struct Step {
    /// Span name: index, scan, probe, rescan, main, delta or materialize.
    const char* name = "";
    /// The pass the step ran in; predicate steps run in the main pass.
    QueryPhase phase = QueryPhase::kScanProbe;
    /// Set for predicate steps only.
    std::optional<StepKind> kind;
    ColumnId column = 0;
    /// Index steps: the index that answered them.
    const MainIndex* index = nullptr;
    /// main/delta: rows of the partition; materialize: positions fetched.
    uint64_t rows = 0;
    /// Predicate steps: candidates before and after the step. delta: rows
    /// qualifying, and those visible to the snapshot.
    uint64_t candidates_in = 0;
    uint64_t candidates_out = 0;
    /// Scan/probe/rescan steps.
    double estimated_selectivity = 0.0;
    /// Probe/rescan: the scan-vs-probe input (candidates / main rows).
    double qualifying_fraction = 0.0;
    /// The step returned an error (its IoStats still count).
    bool failed = false;
    IoStats io_before;
    IoStats io_after;
    /// MRC scans: modeled DRAM bytes streamed.
    uint64_t mm_bytes = 0;
    /// Recorded only when a trace is wanted.
    uint64_t wall_ns = 0;

    bool is_main() const { return !kind && phase == QueryPhase::kScanProbe; }
  };

  /// Opens one step and appends it when it goes out of scope, so early
  /// `return status` paths still record the partial step.
  class Scope {
   public:
    Scope(StepRecord* record, const char* name, QueryPhase phase,
          const IoStats* io)
        : record_(record), io_(io) {
      step_.name = name;
      step_.phase = phase;
      step_.io_before = *io;
      if (record_->timed) wall_before_ = WallClockNs();
    }
    ~Scope() {
      step_.io_after = *io_;
      if (record_->timed) step_.wall_ns = WallClockNs() - wall_before_;
      record_->steps.push_back(std::move(step_));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    Step* operator->() { return &step_; }

   private:
    StepRecord* record_;
    const IoStats* io_;
    Step step_;
    uint64_t wall_before_ = 0;
  };

  bool timed = false;
  std::vector<Step> steps;

  void CountMetrics(const Table& table, const QueryResult& result) const {
    QueryMetrics& metrics = QueryMetrics::Get();
    for (const Step& step : steps) {
      if (step.kind == StepKind::kIndex) metrics.index_lookups->Add();
      if (step.kind == StepKind::kRescan) metrics.rescan_steps->Add();
      if (step.kind == StepKind::kProbe) {
        metrics.probe_steps->Add();
        if (table.location(step.column) == ColumnLocation::kSecondary) {
          metrics.scan_to_probe_switches->Add();
        }
      }
    }
    metrics.queries->Add();
    if (!result.status.ok()) metrics.query_failures->Add();
    metrics.query_sim_ns->Observe(result.io.TotalNs());
    metrics.query_result_rows->Observe(result.positions.size());
  }

  void Observe(const Query& query, const QueryResult& result,
               QueryObservation* obs) const {
    *obs = QueryObservation();  // caller-provided storage may be reused
    for (const Step& step : steps) {
      // Failed steps sampled nothing. Composite index lookups answer
      // several predicates at once, so their joint selectivity is not
      // attributable to one column and only the template
      // (filtered_columns) records them.
      if (!step.kind || step.failed) continue;
      if (step.index != nullptr && step.index->columns().size() > 1) continue;
      StepObservation observed;
      observed.column = step.column;
      observed.kind = *step.kind;
      observed.candidates_in = step.candidates_in;
      observed.observed_selectivity =
          Selectivity(step.candidates_in, step.candidates_out);
      obs->steps.push_back(observed);
      obs->mm_bytes += step.mm_bytes;
      if (step.mm_bytes > 0) {
        obs->mm_scan_ns += step.io_after.dram_ns - step.io_before.dram_ns;
      }
    }
    for (const Predicate& pred : query.predicates) {
      obs->filtered_columns.push_back(pred.column);
    }
    std::sort(obs->filtered_columns.begin(), obs->filtered_columns.end());
    obs->filtered_columns.erase(std::unique(obs->filtered_columns.begin(),
                                            obs->filtered_columns.end()),
                                obs->filtered_columns.end());
    obs->simulated_ns = result.io.TotalNs();
    obs->device_ns = result.io.device_ns;
    obs->page_reads = result.io.page_reads;
    obs->failed = !result.status.ok();
  }

  /// DRAM charges accrued by each pass land in its phase; device time
  /// splits into productive store IO vs retry waste, so the vector
  /// partitions TotalNs exactly even on cancellation/fault paths with
  /// partial accrual.
  void FillPhases(const IoStats& io, PhaseVector* phases) const {
    *phases = PhaseVector();
    for (const Step& step : steps) {
      if (step.kind) continue;  // predicate steps are inside the main pass
      (*phases)[step.phase] = step.io_after.dram_ns - step.io_before.dram_ns;
    }
    (*phases)[QueryPhase::kStoreIo] = io.device_ns - io.retry_backoff_ns;
    (*phases)[QueryPhase::kRetryBackoff] = io.retry_backoff_ns;
  }

  std::shared_ptr<const TraceSpan> Trace(const Table& table,
                                         double probe_threshold,
                                         const Query& query,
                                         const std::vector<size_t>& order,
                                         uint32_t threads,
                                         const QueryResult& result,
                                         uint64_t wall_ns) const {
    auto root = std::make_shared<TraceSpan>();
    root->name = "execute";
    root->simulated_ns = result.io.TotalNs();
    root->wall_ns = wall_ns;
    root->Annotate("threads", std::to_string(threads));
    std::string order_names;
    for (size_t idx : order) {
      if (!order_names.empty()) order_names += ',';
      order_names += table.schema()[query.predicates[idx].column].name;
    }
    root->Annotate("predicate_order", std::move(order_names));
    // Predicate steps end before the main pass that contains them; they
    // wait here until its entry adopts them.
    std::vector<TraceSpan> predicate_spans;
    for (const Step& step : steps) {
      TraceSpan span;
      span.name = step.name;
      span.simulated_ns = step.io_after.TotalNs() - step.io_before.TotalNs();
      span.wall_ns = step.wall_ns;
      if (step.kind == StepKind::kIndex) {
        std::string columns;
        for (ColumnId c : step.index->columns()) {
          if (!columns.empty()) columns += ',';
          columns += table.schema()[c].name;
        }
        span.Annotate("columns", std::move(columns));
        span.Annotate("candidates_out", std::to_string(step.candidates_out));
      } else if (step.kind) {
        if (step.kind != StepKind::kScan) {
          // The scan-vs-probe switch (paper §II-B): the decision inputs
          // show *why* this step scanned or probed.
          span.Annotate("qualifying_fraction",
                        TraceFormatDouble(step.qualifying_fraction));
          span.Annotate("probe_threshold", TraceFormatDouble(probe_threshold));
          span.Annotate("decision",
                        step.kind == StepKind::kRescan ? "scan" : "probe");
        }
        span.Annotate("column", table.schema()[step.column].name);
        span.Annotate("est_selectivity",
                      TraceFormatDouble(step.estimated_selectivity));
        span.Annotate("actual_selectivity",
                      TraceFormatDouble(Selectivity(step.candidates_in,
                                                    step.candidates_out)));
        span.Annotate("candidates_in", std::to_string(step.candidates_in));
        span.Annotate("candidates_out", std::to_string(step.candidates_out));
      } else if (step.is_main()) {
        span.Annotate("main_rows", std::to_string(step.rows));
      } else if (step.phase == QueryPhase::kDelta) {
        span.Annotate("delta_rows", std::to_string(step.rows));
        span.Annotate("qualifying", std::to_string(step.candidates_in));
        span.Annotate("visible", std::to_string(step.candidates_out));
      } else {
        span.Annotate("positions", std::to_string(step.rows));
        span.Annotate("projections",
                      std::to_string(query.projections.size()));
        span.Annotate("aggregates", std::to_string(query.aggregates.size()));
      }
      // Counter annotations are exclusive (self-only): the main pass's
      // children already annotated their share. The per-span values then
      // partition the query's IoStats — summing them over the whole tree
      // reproduces QueryResult::io exactly.
      IoStats after = step.io_after;
      IoStats before = step.io_before;
      if (step.is_main()) {
        for (const Step& child : steps) {
          if (!child.kind) continue;
          after += child.io_before;
          before += child.io_after;
        }
        span.children = std::move(predicate_spans);
      }
      AnnotateCounters(after, before, &span);
      if (step.kind) {
        predicate_spans.push_back(std::move(span));
      } else {
        root->children.push_back(std::move(span));
      }
    }
    root->Annotate("status", result.status.ok() ? std::string("ok")
                                                : result.status.ToString());
    root->Annotate("result_rows", std::to_string(result.positions.size()));
    return root;
  }
};

QueryExecutor::QueryExecutor(const Table* table, double probe_threshold)
    : table_(table), probe_threshold_(probe_threshold) {
  HYTAP_ASSERT(table != nullptr, "executor requires a table");
}

double QueryExecutor::EstimateSelectivity(const Predicate& pred) const {
  // Histogram-backed estimate when statistics exist (range-aware); otherwise
  // the 1/distinct default (paper §II-B footnote).
  if (const TableStatistics* stats = table_->statistics()) {
    return stats->EstimateSelectivity(pred.column, pred.LoPtr(),
                                      pred.HiPtr());
  }
  return table_->SelectivityEstimate(pred.column);
}

std::vector<size_t> QueryExecutor::PredicateOrder(const Query& query) const {
  std::vector<size_t> order(query.predicates.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const ColumnId ca = query.predicates[a].column;
    const ColumnId cb = query.predicates[b].column;
    const bool dram_a = table_->location(ca) == ColumnLocation::kDram;
    const bool dram_b = table_->location(cb) == ColumnLocation::kDram;
    if (dram_a != dram_b) return dram_a;  // DRAM-resident first
    const double sa = EstimateSelectivity(query.predicates[a]);
    const double sb = EstimateSelectivity(query.predicates[b]);
    if (sa != sb) return sa < sb;  // most restrictive first
    return ca < cb;
  });
  return order;
}

namespace {

bool IsEquality(const Predicate& pred) {
  return pred.lo.has_value() && pred.hi.has_value() && *pred.lo == *pred.hi;
}

/// Cancellation poll — called only at serial control points (between
/// predicate steps, between accounting batches), never inside worker
/// morsels, so a cancelled query aborts at a deterministic step boundary.
bool StopRequested(const ExecOptions& opts) {
  return opts.stop != nullptr && opts.stop->load(std::memory_order_relaxed);
}

/// Simulated DRAM cost of one B+-tree index traversal plus materializing
/// `matches` row ids.
uint64_t IndexLookupCostNs(size_t indexed_rows, size_t matches) {
  size_t height = 1;
  for (size_t n = indexed_rows; n > 64; n /= 64) ++height;
  return (height * 2 + matches) * kDramTouchNs;
}

}  // namespace

// Index selection (paper §II-B: "filters are executed using indices if
// existing; afterwards, the remaining filters are sorted ..."): prefer a
// composite index covered by equality predicates, then a single-column index
// on the most selective indexed predicate. Returns the indices of the
// consumed predicates via `used`.
const MainIndex* QueryExecutor::PickIndex(const Query& query,
                                          std::vector<size_t>* used) const {
  // Composite: all key parts present as equalities.
  std::vector<ColumnId> equality_columns;
  for (const Predicate& pred : query.predicates) {
    if (IsEquality(pred)) equality_columns.push_back(pred.column);
  }
  if (const MainIndex* composite =
          table_->FindCompositeIndex(equality_columns)) {
    for (ColumnId key_part : composite->columns()) {
      for (size_t i = 0; i < query.predicates.size(); ++i) {
        if (query.predicates[i].column == key_part &&
            IsEquality(query.predicates[i])) {
          used->push_back(i);
          break;
        }
      }
    }
    return composite;
  }
  // Single-column: most selective indexed predicate first.
  const MainIndex* best = nullptr;
  double best_selectivity = 2.0;
  size_t best_predicate = 0;
  for (size_t i = 0; i < query.predicates.size(); ++i) {
    const MainIndex* index = table_->FindIndex(query.predicates[i].column);
    if (index == nullptr) continue;
    // Histogram-backed, predicate-aware estimate: a wide range over a
    // low-cardinality index should lose to a tight range over a wide one,
    // which the static per-column 1/distinct default cannot express.
    const double s = EstimateSelectivity(query.predicates[i]);
    if (s < best_selectivity) {
      best_selectivity = s;
      best = index;
      best_predicate = i;
    }
  }
  if (best != nullptr) used->push_back(best_predicate);
  return best;
}

Status QueryExecutor::ExecuteMain(const Transaction& txn, const Query& query,
                                  const std::vector<size_t>& order,
                                  const ExecOptions& opts, QueryResult* result,
                                  StepRecord* record) const {
  const uint32_t threads = opts.threads;
  const size_t main_rows = table_->main_row_count();
  if (main_rows == 0) return Status::Ok();
  if (StopRequested(opts)) {
    return Status::Cancelled("query cancelled before the index step");
  }
  PositionList positions;
  bool first = true;
  // Index access path.
  std::vector<size_t> used_predicates;
  if (!query.predicates.empty()) {
    if (const MainIndex* index = PickIndex(query, &used_predicates)) {
      const Predicate& pred = query.predicates[used_predicates[0]];
      StepRecord::Scope step(record, "index", QueryPhase::kScanProbe,
                             &result->io);
      step->kind = StepKind::kIndex;
      step->index = index;
      step->column = pred.column;
      if (index->columns().size() > 1) {
        Row key(index->columns().size());
        for (size_t k = 0; k < index->columns().size(); ++k) {
          key[k] = *query.predicates[used_predicates[k]].lo;
        }
        positions = index->Lookup(key);
      } else if (IsEquality(pred)) {
        positions = index->Lookup({*pred.lo});
      } else {
        index->RangeLookup(pred.LoPtr(), pred.HiPtr(), &positions);
      }
      result->io.dram_ns += IndexLookupCostNs(index->size(),
                                              positions.size());
      result->candidate_trace.push_back(positions.size());
      step->candidates_in = main_rows;
      step->candidates_out = positions.size();
      first = false;
    }
  }
  for (size_t idx : order) {
    if (std::find(used_predicates.begin(), used_predicates.end(), idx) !=
        used_predicates.end()) {
      continue;  // already answered by the index
    }
    if (StopRequested(opts)) {
      return Status::Cancelled("query cancelled between predicate steps");
    }
    const Predicate& pred = query.predicates[idx];
    if (first) {
      StepRecord::Scope step(record, "scan", QueryPhase::kScanProbe,
                             &result->io);
      step->kind = StepKind::kScan;
      step->column = pred.column;
      step->estimated_selectivity = EstimateSelectivity(pred);
      Status status = ScanMainColumn(*table_, pred.column, pred, threads,
                                     &positions, &result->io, nullptr,
                                     opts.buffers);
      step->candidates_in = main_rows;
      step->candidates_out = positions.size();
      step->failed = !status.ok();
      if (!status.ok()) return status;
      if (table_->location(pred.column) == ColumnLocation::kDram) {
        // Modeled DRAM bytes of an MRC scan: the bit-packed code vector
        // scaled by the surviving (unpruned) morsel fraction — mirroring the
        // dram_ns the scan charged, but denominated in bytes so the
        // calibrator can fit ns/byte independently of the reference params.
        const AbstractColumn* mrc = table_->mrc(pred.column);
        const uint64_t bytes = mrc->MemoryUsage();
        const uint64_t morsels =
            ThreadPool::MorselCount(0, mrc->size(), kScanMorselRows);
        const uint64_t pruned =
            result->io.morsels_pruned - step->io_before.morsels_pruned;
        step->mm_bytes =
            morsels == 0 ? bytes : bytes - bytes * pruned / morsels;
      }
      first = false;
    } else if (positions.empty()) {
      result->candidate_trace.push_back(0);
      continue;
    } else {
      const double fraction =
          static_cast<double>(positions.size()) / double(main_rows);
      PositionList next;
      const bool rescan =
          fraction >= probe_threshold_ &&
          table_->location(pred.column) == ColumnLocation::kSecondary;
      StepRecord::Scope step(record, rescan ? "rescan" : "probe",
                             QueryPhase::kScanProbe, &result->io);
      step->kind = rescan ? StepKind::kRescan : StepKind::kProbe;
      step->column = pred.column;
      step->estimated_selectivity = EstimateSelectivity(pred);
      step->qualifying_fraction = fraction;
      step->candidates_in = positions.size();
      Status status;
      if (rescan) {
        // Too many candidates for random page probes: sequentially scan the
        // tiered group and intersect (paper §II-B scan-vs-probe switch).
        // The rescan is restricted to the page span covered by the
        // surviving candidates — pages outside it cannot contribute to the
        // intersection.
        PositionList scanned;
        status = ScanMainColumn(*table_, pred.column, pred, threads, &scanned,
                                &result->io, &positions, opts.buffers);
        if (status.ok()) {
          std::set_intersection(positions.begin(), positions.end(),
                                scanned.begin(), scanned.end(),
                                std::back_inserter(next));
        }
      } else {
        status = ProbeMainColumn(*table_, pred.column, pred, positions,
                                 threads, &next, &result->io, opts.buffers);
      }
      step->failed = !status.ok();
      if (!status.ok()) return status;
      positions = std::move(next);
      step->candidates_out = positions.size();
    }
    result->candidate_trace.push_back(positions.size());
  }
  if (query.predicates.empty()) {
    positions.resize(main_rows);
    for (RowId r = 0; r < main_rows; ++r) positions[r] = r;
  }
  // MVCC: filter invalidated main rows.
  for (RowId row : positions) {
    if (table_->IsVisible(row, txn)) result->positions.push_back(row);
  }
  return Status::Ok();
}

void QueryExecutor::ExecuteDelta(const Transaction& txn, const Query& query,
                                 const std::vector<size_t>& order,
                                 const ExecOptions& opts, QueryResult* result,
                                 StepRecord* record) const {
  // Bounded by the submit-time delta size when serving: rows appended while
  // the query was queued are invisible to its snapshot, so excluding them
  // from the scan span keeps the DRAM cost (and the observation) a pure
  // function of the ticket.
  const size_t delta_rows =
      std::min(opts.delta_limit, table_->delta_row_count());
  if (delta_rows == 0) return;
  StepRecord::Scope step(record, "delta", QueryPhase::kDelta, &result->io);
  step->rows = delta_rows;
  PositionList positions;
  bool first = true;
  for (size_t idx : order) {
    const Predicate& pred = query.predicates[idx];
    if (first) {
      ScanDeltaColumn(*table_, pred.column, pred, &positions, &result->io,
                      delta_rows);
      first = false;
    } else if (positions.empty()) {
      break;
    } else {
      PositionList next;
      ProbeDeltaColumn(*table_, pred.column, pred, positions, &next,
                       &result->io);
      positions = std::move(next);
    }
  }
  if (query.predicates.empty()) {
    positions.resize(delta_rows);
    for (RowId r = 0; r < delta_rows; ++r) positions[r] = r;
  }
  const size_t main_rows = table_->main_row_count();
  size_t visible = 0;
  for (RowId local : positions) {
    const RowId global = main_rows + local;
    if (table_->IsVisible(global, txn)) {
      result->positions.push_back(global);
      ++visible;
    }
  }
  step->candidates_in = positions.size();
  step->candidates_out = visible;
}

namespace {

double NumericAsDouble(const Value& v) {
  switch (v.type()) {
    case DataType::kInt32:
      return double(v.AsInt32());
    case DataType::kInt64:
      return double(v.AsInt64());
    case DataType::kFloat:
      return double(v.AsFloat());
    case DataType::kDouble:
      return v.AsDouble();
    case DataType::kString:
      HYTAP_UNREACHABLE("SUM over a string column");
  }
  HYTAP_UNREACHABLE("invalid DataType");
}

}  // namespace

Status QueryExecutor::Materialize(const Query& query, const ExecOptions& opts,
                                  QueryResult* result,
                                  StepRecord* record) const {
  if (query.projections.empty() && query.aggregates.empty()) {
    return Status::Ok();
  }
  const uint32_t threads = opts.threads;
  BufferManager* buffers =
      opts.buffers != nullptr ? opts.buffers : table_->buffers();
  if (StopRequested(opts)) {
    return Status::Cancelled("query cancelled before materialization");
  }
  StepRecord::Scope step(record, "materialize", QueryPhase::kMaterialize,
                         &result->io);
  step->rows = result->positions.size();
  const size_t main_rows = table_->main_row_count();
  // Fetch set: projections first, then any extra aggregate inputs, so
  // SSCG attributes of one row still share a single page access
  // (paper §II-A: tuple-centric SSCG locality).
  std::vector<ColumnId> fetch_cols = query.projections;
  std::vector<size_t> aggregate_slot(query.aggregates.size(), SIZE_MAX);
  for (size_t a = 0; a < query.aggregates.size(); ++a) {
    const Aggregate& agg = query.aggregates[a];
    if (agg.kind == Aggregate::Kind::kCount) continue;
    auto it = std::find(fetch_cols.begin(), fetch_cols.end(), agg.column);
    if (it == fetch_cols.end()) {
      aggregate_slot[a] = fetch_cols.size();
      fetch_cols.push_back(agg.column);
    } else {
      aggregate_slot[a] = size_t(it - fetch_cols.begin());
    }
  }

  bool any_sscg = false;
  for (ColumnId c : fetch_cols) {
    any_sscg |= table_->location(c) == ColumnLocation::kSecondary;
  }

  const PositionList& positions = result->positions;
  const Sscg* sscg = table_->sscg();

  // Device/cache accounting pass, single-threaded and in position order:
  // fetches each qualifying tuple's group page through the buffer manager
  // exactly as the serial reconstruction did, so hit/miss sequences, the
  // device model's jitter draws, and the fault-injection schedule are
  // identical for any worker count. A page failure aborts here, before any
  // worker materializes a value — the first failing position wins
  // deterministically.
  if (any_sscg) {
    HYTAP_ASSERT(sscg != nullptr, "SSCG projection without SSCG");
    size_t batch = 0;
    for (RowId row : positions) {
      // Poll the stop token between accounting batches, never mid-batch:
      // the abort point is a deterministic function of how far the pass got.
      if ((batch++ & 4095u) == 0 && StopRequested(opts)) {
        return Status::Cancelled("query cancelled during tuple accounting");
      }
      if (row < main_rows) {
        Status status =
            sscg->AccountTupleFetch(row, buffers, threads, &result->io);
        if (!status.ok()) return status;
      }
    }
  }
  if (StopRequested(opts)) {
    return Status::Cancelled("query cancelled before the materialize pass");
  }

  // Materialization pass: morsel-parallel over qualifying positions. SSCG
  // attributes come from raw pages (already cached and accounted above);
  // MRC/delta attributes cost fixed DRAM touches accumulated per worker and
  // reduced below — sums of constants, so the total matches serial
  // execution regardless of the morsel partition.
  std::vector<Row> fetched_all(positions.size());
  const size_t morsels =
      ThreadPool::MorselCount(0, positions.size(), kMaterializeMorselRows);
  std::vector<IoStats> worker_io(morsels);
  std::vector<Status> worker_status(morsels);
  ThreadPool::Global().ParallelFor(
      0, positions.size(), kMaterializeMorselRows, threads,
      [&](size_t m, size_t index_begin, size_t index_end) {
        IoStats& local_io = worker_io[m];
        for (size_t i = index_begin; i < index_end; ++i) {
          const RowId row = positions[i];
          Row fetched(fetch_cols.size());
          if (row < main_rows && any_sscg) {
            Row group = sscg->RawRow(row, *table_->store());
            for (size_t p = 0; p < fetch_cols.size(); ++p) {
              const int slot = sscg->layout().SlotOf(fetch_cols[p]);
              if (slot >= 0) fetched[p] = group[static_cast<size_t>(slot)];
            }
          }
          for (size_t p = 0; p < fetch_cols.size(); ++p) {
            const ColumnId c = fetch_cols[p];
            if (row < main_rows &&
                table_->location(c) == ColumnLocation::kSecondary) {
              continue;  // already materialized from the group page
            }
            auto value = table_->GetValue(c, row, threads, &local_io);
            // DRAM/delta reads cannot fail today (SSCG pages were fetched
            // and verified in the accounting pass), but keep the morsel's
            // first error rather than asserting: the reduction below picks
            // the winner in morsel order, independent of worker count.
            if (!value.ok()) {
              worker_status[m] = value.status();
              return;
            }
            fetched[p] = std::move(*value);
          }
          fetched_all[i] = std::move(fetched);
        }
      });
  for (const IoStats& local_io : worker_io) result->io += local_io;
  for (const Status& status : worker_status) {
    if (!status.ok()) return status;
  }

  // Aggregation and row assembly, single-threaded in position order: keeps
  // floating-point accumulation order (and min/max tie-breaks) identical to
  // the serial execution.
  std::vector<double> sums(query.aggregates.size(), 0.0);
  std::vector<std::optional<Value>> best(query.aggregates.size());
  const bool keep_rows = !query.projections.empty();
  if (keep_rows) result->rows.reserve(positions.size());
  for (size_t i = 0; i < fetched_all.size(); ++i) {
    Row& fetched = fetched_all[i];
    for (size_t a = 0; a < query.aggregates.size(); ++a) {
      const Aggregate& agg = query.aggregates[a];
      switch (agg.kind) {
        case Aggregate::Kind::kCount:
          break;  // computed from positions below
        case Aggregate::Kind::kSum:
          sums[a] += NumericAsDouble(fetched[aggregate_slot[a]]);
          break;
        case Aggregate::Kind::kMin: {
          const Value& v = fetched[aggregate_slot[a]];
          if (!best[a].has_value() || v < *best[a]) best[a] = v;
          break;
        }
        case Aggregate::Kind::kMax: {
          const Value& v = fetched[aggregate_slot[a]];
          if (!best[a].has_value() || *best[a] < v) best[a] = v;
          break;
        }
      }
    }
    if (keep_rows) {
      fetched.resize(query.projections.size());
      result->rows.push_back(std::move(fetched));
    }
  }
  result->aggregate_values.resize(query.aggregates.size());
  for (size_t a = 0; a < query.aggregates.size(); ++a) {
    switch (query.aggregates[a].kind) {
      case Aggregate::Kind::kCount:
        result->aggregate_values[a] =
            Value(int64_t(result->positions.size()));
        break;
      case Aggregate::Kind::kSum:
        result->aggregate_values[a] = Value(sums[a]);
        break;
      case Aggregate::Kind::kMin:
      case Aggregate::Kind::kMax:
        result->aggregate_values[a] = best[a].value_or(Value());
        break;
    }
  }
  return Status::Ok();
}

QueryResult QueryExecutor::Execute(const Transaction& txn, const Query& query,
                                   uint32_t threads) const {
  ExecOptions opts;
  opts.threads = threads;
  return Execute(txn, query, opts);
}

QueryResult QueryExecutor::Execute(const Transaction& txn, const Query& query,
                                   const ExecOptions& opts) const {
  return Run(txn, query, opts, TraceEnabled());
}

QueryResult QueryExecutor::Run(const Transaction& txn, const Query& query,
                               const ExecOptions& opts, bool trace) const {
  HYTAP_ASSERT(opts.threads >= 1, "thread count must be >= 1");
  QueryResult result;
  if (opts.observation_filled != nullptr) *opts.observation_filled = false;
  const std::vector<size_t> order = PredicateOrder(query);
  StepRecord record;
  record.timed = trace;
  record.steps.reserve(order.size() + 3);
  const uint64_t wall_before = trace ? WallClockNs() : 0;
  {
    StepRecord::Scope main(&record, "main", QueryPhase::kScanProbe,
                           &result.io);
    main->rows = table_->main_row_count();
    result.status = ExecuteMain(txn, query, order, opts, &result, &record);
  }
  if (result.status.ok() && StopRequested(opts)) {
    result.status = Status::Cancelled("query cancelled before the delta scan");
  }
  if (result.status.ok()) {
    ExecuteDelta(txn, query, order, opts, &result, &record);
    result.status = Materialize(query, opts, &result, &record);
  }
  const uint64_t wall_ns = trace ? WallClockNs() - wall_before : 0;
  if (!result.status.ok()) {
    // Degrade cleanly: no partial positions, rows or aggregates ever leave
    // the executor. The accrued `io` and `status` are the whole result.
    result.positions.clear();
    result.rows.clear();
    result.aggregate_values.clear();
    result.candidate_trace.clear();
  }
  // The views below read only the finished record and result — never feed
  // back into execution — so attaching a monitor, asking for phases or
  // tracing cannot change results, IO counters or fault schedules.
  record.CountMetrics(*table_, result);
  if (monitor_ != nullptr) {
    QueryObservation obs_storage;
    QueryObservation* obs =
        opts.observation != nullptr ? opts.observation : &obs_storage;
    record.Observe(query, result, obs);
    if (opts.observation != nullptr) {
      // Hand the observation back instead of recording it: the serving layer
      // replays observations in ticket order so the monitor's windows and
      // the plan cache stay deterministic under concurrent execution.
      if (opts.observation_filled != nullptr) *opts.observation_filled = true;
    } else {
      monitor_->Record(*obs);
    }
  }
  if (opts.phases != nullptr) {
    record.FillPhases(result.io, opts.phases);
  }
  if (trace) {
    result.trace = record.Trace(*table_, probe_threshold_, query, order,
                                opts.threads, result, wall_ns);
  }
  return result;
}

ExplainResult QueryExecutor::Explain(const Transaction& txn,
                                     const Query& query,
                                     uint32_t threads) const {
  ExecOptions opts;
  opts.threads = threads;
  ExplainResult out;
  out.result = Run(txn, query, opts, /*trace=*/true);
  out.text = RenderTraceText(*out.result.trace);
  out.json = RenderTraceJson(*out.result.trace);
  return out;
}

}  // namespace hytap
