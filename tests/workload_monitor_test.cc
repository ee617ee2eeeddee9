#include "workload/workload_monitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "core/tiered_table.h"

namespace hytap {
namespace {

/// A synthetic observation: one scan step per filtered column, all with the
/// same observed selectivity, advancing the simulated clock by
/// `simulated_ns`.
QueryObservation MakeObservation(std::vector<ColumnId> columns,
                                 uint64_t simulated_ns,
                                 double observed_selectivity = 0.5) {
  QueryObservation obs;
  std::sort(columns.begin(), columns.end());
  obs.filtered_columns = std::move(columns);
  for (ColumnId c : obs.filtered_columns) {
    StepObservation step;
    step.column = c;
    step.kind = StepKind::kScan;
    step.candidates_in = 1000;
    step.observed_selectivity = observed_selectivity;
    obs.steps.push_back(step);
  }
  obs.simulated_ns = simulated_ns;
  return obs;
}

WorkloadMonitor::Options SmallRing(size_t windows, uint64_t window_ns) {
  WorkloadMonitor::Options options;
  options.windows = windows;
  options.window_ns = window_ns;
  return options;
}

TEST(WorkloadMonitorTest, WindowRolloverOnSimulatedClock) {
  WorkloadMonitor monitor(3, SmallRing(3, 100));
  EXPECT_EQ(monitor.window_count(), 1u);
  EXPECT_EQ(monitor.windows_started(), 1u);

  // Both queries *start* inside window 0 even though the second one pushes
  // the clock past the boundary (start-time semantics).
  monitor.Record(MakeObservation({0}, 40));
  EXPECT_EQ(monitor.now_ns(), 40u);
  EXPECT_EQ(monitor.window_count(), 1u);
  monitor.Record(MakeObservation({0}, 70));
  EXPECT_EQ(monitor.now_ns(), 110u);
  EXPECT_EQ(monitor.window_count(), 2u);
  EXPECT_EQ(monitor.windows_started(), 2u);
  EXPECT_EQ(monitor.Snapshot(0).queries, 2u);
  EXPECT_EQ(monitor.Snapshot(1).queries, 0u);
  EXPECT_EQ(monitor.Snapshot(1).start_ns, 100u);

  // A long query crosses two boundaries at once; the ring caps at 3 live
  // windows, evicting the oldest.
  monitor.Record(MakeObservation({1}, 250));
  EXPECT_EQ(monitor.now_ns(), 360u);
  EXPECT_EQ(monitor.windows_started(), 4u);
  EXPECT_EQ(monitor.window_count(), 3u);
  EXPECT_EQ(monitor.Snapshot(0).index, 1u);
  EXPECT_EQ(monitor.Snapshot(0).queries, 1u);  // the long query's start
  EXPECT_EQ(monitor.Snapshot(2).index, 3u);
  EXPECT_EQ(monitor.Snapshot(2).start_ns, 300u);
  EXPECT_EQ(monitor.queries_observed(), 3u);
}

TEST(WorkloadMonitorTest, ForceRollJumpsToNextBoundary) {
  WorkloadMonitor monitor(2, SmallRing(4, 100));
  monitor.Record(MakeObservation({0}, 10));
  EXPECT_EQ(monitor.now_ns(), 10u);

  monitor.ForceRoll();
  EXPECT_EQ(monitor.now_ns(), 100u);
  EXPECT_EQ(monitor.windows_started(), 2u);

  // Rolling an already-fresh window still opens a new one (phase markers).
  monitor.ForceRoll();
  EXPECT_EQ(monitor.now_ns(), 200u);
  EXPECT_EQ(monitor.windows_started(), 3u);

  monitor.Record(MakeObservation({1}, 5));
  EXPECT_EQ(monitor.Snapshot(monitor.window_count() - 1).queries, 1u);
}

TEST(WorkloadMonitorTest, DriftTracksColumnMixShift) {
  WorkloadMonitor monitor(3, SmallRing(8, 100));
  monitor.Record(MakeObservation({0}, 1));
  monitor.Record(MakeObservation({0}, 1));
  EXPECT_DOUBLE_EQ(monitor.Drift(), 0.0);  // only one non-empty window

  monitor.ForceRoll();
  monitor.Record(MakeObservation({0}, 1));
  EXPECT_DOUBLE_EQ(monitor.Drift(), 0.0);  // same mix

  monitor.ForceRoll();
  monitor.Record(MakeObservation({2}, 1));
  EXPECT_DOUBLE_EQ(monitor.Drift(), 1.0);  // disjoint column sets

  // Empty windows are skipped: drift still compares the newest non-empty
  // pair.
  monitor.ForceRoll();
  monitor.ForceRoll();
  EXPECT_DOUBLE_EQ(monitor.Drift(), 1.0);

  // Half-overlapping mix: TV distance 0.5.
  monitor.Record(MakeObservation({0}, 1));
  monitor.Record(MakeObservation({2}, 1));
  EXPECT_DOUBLE_EQ(monitor.Drift(), 0.5);
}

TEST(WorkloadMonitorTest, WindowDistanceIsTotalVariation) {
  WorkloadWindowSnapshot a, b;
  a.column_frequency = {2.0, 2.0, 0.0};
  b.column_frequency = {1.0, 1.0, 0.0};
  EXPECT_DOUBLE_EQ(WindowDistance(a, b), 0.0);  // same normalized mix
  b.column_frequency = {0.0, 0.0, 4.0};
  EXPECT_DOUBLE_EQ(WindowDistance(a, b), 1.0);  // disjoint
  b.column_frequency = {2.0, 0.0, 2.0};
  EXPECT_DOUBLE_EQ(WindowDistance(a, b), 0.5);  // half shifted
}

TEST(WorkloadMonitorTest, WindowsToWorkloadUsesObservedSelectivities) {
  WorkloadMonitor monitor(3, SmallRing(4, 1'000'000'000));
  monitor.Record(MakeObservation({1}, 10, 0.2));
  monitor.Record(MakeObservation({1}, 10, 0.2));
  monitor.Record(MakeObservation({1, 2}, 10, 0.5));

  const std::vector<double> sizes = {100.0, 200.0, 300.0};
  const std::vector<double> fallback = {0.9, 0.9, 0.9};
  const std::vector<std::string> names = {"a", "b", "c"};
  Workload workload =
      WindowsToWorkload(monitor.Export(), sizes, fallback, names);
  ASSERT_EQ(workload.column_count(), 3u);
  EXPECT_DOUBLE_EQ(workload.column_sizes[1], 200.0);
  // Column 0 never filtered: fallback. Column 1: mean of {0.2, 0.2, 0.5}.
  EXPECT_DOUBLE_EQ(workload.selectivities[0], 0.9);
  EXPECT_NEAR(workload.selectivities[1], 0.3, 1e-12);
  EXPECT_NEAR(workload.selectivities[2], 0.5, 1e-12);
  // Two templates with their execution counts as frequencies.
  ASSERT_EQ(workload.query_count(), 2u);
  double freq_1 = 0.0, freq_12 = 0.0;
  for (const QueryTemplate& q : workload.queries) {
    if (q.columns.size() == 1) freq_1 = q.frequency;
    if (q.columns.size() == 2) freq_12 = q.frequency;
  }
  EXPECT_DOUBLE_EQ(freq_1, 2.0);
  EXPECT_DOUBLE_EQ(freq_12, 1.0);

  // recent=1 restricts the aggregation to the newest window.
  monitor.ForceRoll();
  monitor.Record(MakeObservation({0}, 10, 0.7));
  Workload newest =
      WindowsToWorkload(monitor.Export(), sizes, fallback, names, 1);
  ASSERT_EQ(newest.query_count(), 1u);
  EXPECT_EQ(newest.queries[0].columns, (std::vector<uint32_t>{0}));
  EXPECT_NEAR(newest.selectivities[0], 0.7, 1e-12);
  EXPECT_DOUBLE_EQ(newest.selectivities[1], 0.9);  // back to fallback
}

TEST(WorkloadMonitorTest, SequenceSinkAndReset) {
  struct CountingSink : QueryObservationSink {
    size_t calls = 0;
    uint64_t last_ns = 0;
    void Observe(const QueryObservation& observation) override {
      ++calls;
      last_ns = observation.simulated_ns;
    }
  } sink;

  WorkloadMonitor monitor(2, SmallRing(2, 100));
  monitor.set_sink(&sink);
  EXPECT_EQ(monitor.queries_observed(), 0u);
  monitor.Record(MakeObservation({0}, 17));
  EXPECT_EQ(monitor.queries_observed(), 1u);
  EXPECT_EQ(sink.calls, 1u);
  EXPECT_EQ(sink.last_ns, 17u);

  monitor.set_sink(nullptr);
  monitor.Record(MakeObservation({0}, 3));
  EXPECT_EQ(sink.calls, 1u);  // detached
  EXPECT_EQ(monitor.queries_observed(), 2u);

  monitor.Reset();
  EXPECT_EQ(monitor.now_ns(), 0u);
  EXPECT_EQ(monitor.window_count(), 1u);
  EXPECT_EQ(monitor.windows_started(), 1u);
  EXPECT_EQ(monitor.queries_observed(), 0u);
}

// ---------------------------------------------------------------------------
// Bit-identity: the monitor is a pure observer. With the executor's monitor
// attached or detached, query results and the simulated cost model must be
// identical at the same thread count — every ns field included — and an
// armed fault injector must not be shifted by a single draw. Mirrors
// parallel_equivalence_test, but drives the full TieredTable so the
// monitor/calibrator wiring is live.
// ---------------------------------------------------------------------------

constexpr size_t kMainRows = 4000;
constexpr size_t kDeltaRows = 120;

Schema TestSchema() {
  Schema schema;
  schema.push_back({"id", DataType::kInt32, 0});
  schema.push_back({"grp", DataType::kInt32, 0});
  schema.push_back({"amount", DataType::kDouble, 0});
  schema.push_back({"qty", DataType::kInt64, 0});
  return schema;
}

TieredTableOptions InstanceOptions() {
  TieredTableOptions options;
  options.device = DeviceKind::kCssd;
  options.timing_seed = 7;
  return options;
}

/// One self-contained engine instance, reproducibly seeded.
struct Instance {
  TieredTable table;

  explicit Instance(FaultConfig faults = FaultConfig())
      : table("t", TestSchema(), InstanceOptions()) {
    Rng rng(1234);
    std::vector<Row> rows;
    rows.reserve(kMainRows);
    for (size_t r = 0; r < kMainRows; ++r) {
      rows.push_back(Row{Value(int32_t(r)),
                         Value(int32_t(rng.NextInt(0, 50))),
                         Value(rng.NextDouble(0.0, 1000.0)),
                         Value(int64_t(rng.NextInt(1, 10000)))});
    }
    table.Load(rows);
    EXPECT_TRUE(table.ApplyPlacement({true, true, false, false}).ok());
    if (faults.AnyFaults()) table.store().ConfigureFaults(faults);
    Transaction txn = table.Begin();
    for (size_t d = 0; d < kDeltaRows; ++d) {
      EXPECT_TRUE(table
                      .Insert(txn, Row{Value(int32_t(kMainRows + d)),
                                       Value(int32_t(rng.NextInt(0, 50))),
                                       Value(rng.NextDouble(0.0, 1000.0)),
                                       Value(int64_t(rng.NextInt(1, 10000)))})
                      .ok());
    }
    table.Commit(&txn);
  }
};

std::vector<Query> RandomQueries(size_t count) {
  Rng rng(99);
  std::vector<Query> queries;
  for (size_t q = 0; q < count; ++q) {
    Query query;
    const int preds = 1 + int(rng.NextBounded(2));
    for (int p = 0; p < preds; ++p) {
      const ColumnId col = ColumnId(1 + rng.NextBounded(3));
      if (col == 1) {
        query.predicates.push_back(
            Predicate::Equals(1, Value(int32_t(rng.NextInt(0, 50)))));
      } else if (col == 2) {
        const double lo = rng.NextDouble(0.0, 900.0);
        query.predicates.push_back(
            Predicate::Between(2, Value(lo), Value(lo + 150.0)));
      } else {
        const int64_t lo = rng.NextInt(0, 8000);
        query.predicates.push_back(
            Predicate::Between(3, Value(lo), Value(lo + 2500)));
      }
    }
    query.projections = {0, 2};
    query.aggregates = {Aggregate::Count(), Aggregate::Sum(2),
                        Aggregate::Min(3), Aggregate::Max(2)};
    queries.push_back(std::move(query));
  }
  return queries;
}

std::vector<QueryResult> RunAll(Instance& instance,
                                const std::vector<Query>& queries,
                                uint32_t threads) {
  Transaction txn = instance.table.Begin();
  std::vector<QueryResult> results;
  for (const Query& query : queries) {
    results.push_back(instance.table.Execute(txn, query, threads));
  }
  instance.table.Abort(&txn);
  return results;
}

void ExpectSameResults(const QueryResult& a, const QueryResult& b, size_t q) {
  EXPECT_EQ(a.positions, b.positions) << "query " << q;
  EXPECT_EQ(a.rows, b.rows) << "query " << q;
  ASSERT_EQ(a.aggregate_values.size(), b.aggregate_values.size());
  for (size_t i = 0; i < a.aggregate_values.size(); ++i) {
    EXPECT_TRUE(a.aggregate_values[i] == b.aggregate_values[i])
        << "query " << q << " aggregate " << i;
  }
  EXPECT_EQ(a.candidate_trace, b.candidate_trace) << "query " << q;
  EXPECT_EQ(a.io.page_reads, b.io.page_reads) << "query " << q;
  EXPECT_EQ(a.io.cache_hits, b.io.cache_hits) << "query " << q;
  EXPECT_EQ(a.io.retries, b.io.retries) << "query " << q;
  EXPECT_EQ(a.io.morsels_pruned, b.io.morsels_pruned) << "query " << q;
  EXPECT_EQ(a.io.pages_pruned, b.io.pages_pruned) << "query " << q;
  EXPECT_EQ(a.io.checksum_failures, b.io.checksum_failures) << "query " << q;
  EXPECT_EQ(a.io.quarantined_pages, b.io.quarantined_pages) << "query " << q;
  EXPECT_EQ(a.io.device_ns, b.io.device_ns) << "query " << q;
  EXPECT_EQ(a.io.dram_ns, b.io.dram_ns) << "query " << q;
}

void ExpectSameFaultStats(const FaultStats& a, const FaultStats& b) {
  EXPECT_EQ(a.transient_errors, b.transient_errors);
  EXPECT_EQ(a.corrupted_reads, b.corrupted_reads);
  EXPECT_EQ(a.corrupted_writes, b.corrupted_writes);
  EXPECT_EQ(a.dead_pages, b.dead_pages);
  EXPECT_EQ(a.latency_spikes, b.latency_spikes);
  EXPECT_EQ(a.checksum_failures, b.checksum_failures);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.failed_reads, b.failed_reads);
  EXPECT_EQ(a.fast_fail_reads, b.fast_fail_reads);
  EXPECT_EQ(a.quarantined_pages, b.quarantined_pages);
}

TEST(WorkloadMonitorTest, KnobOffBitIdenticalAcrossThreadCounts) {
  const std::vector<Query> queries = RandomQueries(12);
  for (uint32_t threads : {1u, 2u, 4u}) {
    Instance off_instance;
    off_instance.table.executor().set_monitor(nullptr);
    const std::vector<QueryResult> off =
        RunAll(off_instance, queries, threads);

    Instance on_instance;
    const std::vector<QueryResult> on = RunAll(on_instance, queries, threads);

    ASSERT_EQ(on.size(), off.size());
    for (size_t q = 0; q < off.size(); ++q) {
      ExpectSameResults(off[q], on[q], q);
    }
    // Off: the observation path was never entered. On: one observation per
    // query, and the plan cache learned the same templates either way.
    EXPECT_EQ(off_instance.table.monitor().queries_observed(), 0u);
    EXPECT_EQ(on_instance.table.monitor().queries_observed(), queries.size());
    EXPECT_EQ(off_instance.table.plan_cache().template_count(),
              on_instance.table.plan_cache().template_count());
    EXPECT_EQ(off_instance.table.plan_cache().total_executions(),
              on_instance.table.plan_cache().total_executions());
  }
}

TEST(WorkloadMonitorTest, KnobDoesNotPerturbSeededFaultSchedules) {
  FaultConfig faults;
  faults.seed = 11;
  faults.read_error_rate = 0.08;
  faults.read_corruption_rate = 0.03;
  faults.page_failure_rate = 0.004;
  faults.latency_spike_rate = 0.05;
  const std::vector<Query> queries = RandomQueries(12);
  for (uint32_t threads : {1u, 4u}) {
    Instance off_instance(faults);
    off_instance.table.executor().set_monitor(nullptr);
    const std::vector<QueryResult> off =
        RunAll(off_instance, queries, threads);

    Instance on_instance(faults);
    const std::vector<QueryResult> on = RunAll(on_instance, queries, threads);

    ASSERT_EQ(on.size(), off.size());
    for (size_t q = 0; q < off.size(); ++q) {
      EXPECT_EQ(off[q].status.code(), on[q].status.code()) << "query " << q;
      EXPECT_EQ(off[q].status.message(), on[q].status.message())
          << "query " << q;
      ExpectSameResults(off[q], on[q], q);
    }
    ExpectSameFaultStats(off_instance.table.store().fault_stats(),
                         on_instance.table.store().fault_stats());
  }
}

}  // namespace
}  // namespace hytap
