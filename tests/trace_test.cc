#include "common/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/phases.h"
#include "common/random.h"
#include "query/executor.h"
#include "storage/table.h"
#include "workload/workload_monitor.h"

namespace hytap {
namespace {

/// Trace spans are built only on the executor's serial control path, so the
/// span tree — everything except wall_ns and the queue-depth-dependent
/// simulated_ns — must be identical at every worker count, with and without
/// a seeded fault schedule.

constexpr size_t kMainRows = 3000;

Schema TestSchema() {
  Schema schema;
  schema.push_back({"id", DataType::kInt32, 0});
  schema.push_back({"grp", DataType::kInt32, 0});
  schema.push_back({"amount", DataType::kDouble, 0});
  schema.push_back({"qty", DataType::kInt64, 0});
  return schema;
}

struct Instance {
  TransactionManager txns;
  SecondaryStore store;
  BufferManager buffers;
  Table table;

  explicit Instance(FaultConfig faults = FaultConfig())
      : store(DeviceKind::kCssd, /*timing_seed=*/7),
        buffers(&store, /*frame_count=*/32),
        table("t", TestSchema(), &txns, &store, &buffers) {
    Rng rng(4321);
    std::vector<Row> rows;
    rows.reserve(kMainRows);
    for (size_t r = 0; r < kMainRows; ++r) {
      rows.push_back(Row{Value(int32_t(r)),
                         Value(int32_t(rng.NextInt(0, 40))),
                         Value(rng.NextDouble(0.0, 1000.0)),
                         Value(int64_t(rng.NextInt(1, 10000)))});
    }
    table.BulkLoad(rows);
    EXPECT_TRUE(table.SetPlacement({true, true, false, false}).ok());
    if (faults.AnyFaults()) store.ConfigureFaults(faults);
    Transaction txn = txns.Begin();
    for (size_t d = 0; d < 60; ++d) {
      EXPECT_TRUE(table
                      .Insert(txn, Row{Value(int32_t(kMainRows + d)),
                                       Value(int32_t(rng.NextInt(0, 40))),
                                       Value(rng.NextDouble(0.0, 1000.0)),
                                       Value(int64_t(rng.NextInt(1, 10000)))})
                      .ok());
    }
    txns.Commit(&txn);
  }
};

std::vector<Query> TestQueries() {
  std::vector<Query> queries;
  {
    // DRAM scan -> SSCG step over both tiered columns: exercises the
    // scan-vs-probe decision and materialization across locations.
    Query query;
    query.predicates.push_back(
        Predicate::Equals(1, Value(int32_t{7})));
    query.predicates.push_back(
        Predicate::Between(2, Value(100.0), Value(700.0)));
    query.projections = {0, 2};
    query.aggregates = {Aggregate::Count(), Aggregate::Sum(2)};
    queries.push_back(std::move(query));
  }
  {
    // Wide SSCG-first predicate: stays on the scan (rescan) side.
    Query query;
    query.predicates.push_back(
        Predicate::Between(3, Value(int64_t{100}), Value(int64_t{9000})));
    query.predicates.push_back(
        Predicate::Between(2, Value(0.0), Value(900.0)));
    query.aggregates = {Aggregate::Count()};
    queries.push_back(std::move(query));
  }
  return queries;
}

/// Strips the fields that legitimately vary with the requested thread count:
/// the timing fields and the root's "threads" request annotation.
TraceSpan Normalize(const TraceSpan& root) {
  TraceSpan out = StripTimes(root);
  auto& annotations = out.annotations;
  for (auto it = annotations.begin(); it != annotations.end(); ++it) {
    if (it->first == "threads") {
      annotations.erase(it);
      break;
    }
  }
  return out;
}

std::vector<TraceSpan> RunTraced(Instance& instance, uint32_t threads) {
  SetTraceEnabled(true);
  QueryExecutor executor(&instance.table);
  Transaction txn = instance.txns.Begin();
  std::vector<TraceSpan> traces;
  for (const Query& query : TestQueries()) {
    QueryResult result = executor.Execute(txn, query, threads);
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_NE(result.trace, nullptr);
    if (result.trace != nullptr) traces.push_back(*result.trace);
  }
  instance.txns.Abort(&txn);
  SetTraceEnabled(false);
  return traces;
}

TEST(TraceTest, NoTraceWhileDisabled) {
  Instance instance;
  SetTraceEnabled(false);
  QueryExecutor executor(&instance.table);
  Transaction txn = instance.txns.Begin();
  QueryResult result = executor.Execute(txn, TestQueries()[0], 2);
  instance.txns.Abort(&txn);
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.trace, nullptr);
}

TEST(TraceTest, SpanTreeStableAcrossThreadCounts) {
  Instance baseline;
  const std::vector<TraceSpan> serial = RunTraced(baseline, 1);
  for (uint32_t threads : {2u, 4u}) {
    Instance instance;
    const std::vector<TraceSpan> parallel = RunTraced(instance, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t q = 0; q < serial.size(); ++q) {
      EXPECT_TRUE(Normalize(parallel[q]) == Normalize(serial[q]))
          << "query " << q << " at " << threads << " threads:\n"
          << RenderTraceText(parallel[q]) << "vs serial:\n"
          << RenderTraceText(serial[q]);
    }
  }
}

TEST(TraceTest, SpanTreeStableUnderSeededFaultSchedule) {
  FaultConfig faults;
  faults.seed = 5;
  faults.read_error_rate = 0.05;
  faults.read_corruption_rate = 0.02;
  faults.latency_spike_rate = 0.05;
  Instance baseline(faults);
  const std::vector<TraceSpan> serial = RunTraced(baseline, 1);
  for (uint32_t threads : {2u, 4u}) {
    Instance instance(faults);
    const std::vector<TraceSpan> parallel = RunTraced(instance, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t q = 0; q < serial.size(); ++q) {
      EXPECT_TRUE(Normalize(parallel[q]) == Normalize(serial[q]))
          << "query " << q << " at " << threads << " threads:\n"
          << RenderTraceText(parallel[q]) << "vs serial:\n"
          << RenderTraceText(serial[q]);
    }
  }
}

/// Finds the first descendant span with the given name (depth-first).
const TraceSpan* FindSpan(const TraceSpan& root, const std::string& name) {
  if (root.name == name) return &root;
  for (const TraceSpan& child : root.children) {
    if (const TraceSpan* found = FindSpan(child, name)) return found;
  }
  return nullptr;
}

/// Sums an integer annotation over the whole tree (absent = 0).
uint64_t SumAnnotation(const TraceSpan& root, const std::string& key) {
  uint64_t total = 0;
  const std::string& value = root.Annotation(key);
  if (!value.empty()) total += std::stoull(value);
  for (const TraceSpan& child : root.children) {
    total += SumAnnotation(child, key);
  }
  return total;
}

TEST(TraceTest, ExplainRecordsSelectivitiesAndDecision) {
  Instance instance;
  QueryExecutor executor(&instance.table);
  Transaction txn = instance.txns.Begin();
  const ExplainResult explain =
      executor.Explain(txn, TestQueries()[0], /*threads=*/2);
  instance.txns.Abort(&txn);
  ASSERT_TRUE(explain.result.status.ok());
  ASSERT_NE(explain.result.trace, nullptr);
  const TraceSpan& root = *explain.result.trace;
  EXPECT_EQ(root.name, "execute");
  EXPECT_FALSE(root.Annotation("predicate_order").empty());
  EXPECT_EQ(root.Annotation("status"), "ok");

  const TraceSpan* main_span = FindSpan(root, "main");
  ASSERT_NE(main_span, nullptr);
  const TraceSpan* scan = FindSpan(*main_span, "scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_FALSE(scan->Annotation("est_selectivity").empty());
  EXPECT_FALSE(scan->Annotation("actual_selectivity").empty());
  EXPECT_EQ(scan->Annotation("column"), "grp");

  // The second predicate hits a tiered column: the trace must show the
  // scan-vs-probe decision with its inputs.
  const TraceSpan* probe = FindSpan(*main_span, "probe");
  const TraceSpan* rescan = FindSpan(*main_span, "rescan");
  ASSERT_TRUE(probe != nullptr || rescan != nullptr);
  const TraceSpan* decision = probe != nullptr ? probe : rescan;
  EXPECT_FALSE(decision->Annotation("qualifying_fraction").empty());
  EXPECT_FALSE(decision->Annotation("probe_threshold").empty());
  EXPECT_FALSE(decision->Annotation("decision").empty());

  // Per-span IoStats deltas must sum back to the result's IoStats.
  EXPECT_EQ(SumAnnotation(root, "page_reads"), explain.result.io.page_reads);
  EXPECT_EQ(SumAnnotation(root, "cache_hits"), explain.result.io.cache_hits);
  EXPECT_EQ(SumAnnotation(root, "pages_pruned"),
            explain.result.io.pages_pruned);
  EXPECT_EQ(SumAnnotation(root, "morsels_pruned"),
            explain.result.io.morsels_pruned);

  // Rendered outputs reference the tree.
  EXPECT_NE(explain.text.find("execute"), std::string::npos);
  EXPECT_NE(explain.text.find("main"), std::string::npos);
  EXPECT_FALSE(explain.json.empty());
}

TEST(TraceTest, ExplainRestoresTraceKnob) {
  Instance instance;
  SetTraceEnabled(false);
  QueryExecutor executor(&instance.table);
  Transaction txn = instance.txns.Begin();
  (void)executor.Explain(txn, TestQueries()[0]);
  EXPECT_FALSE(TraceEnabled());
  // Plain Execute afterwards attaches no trace.
  QueryResult result = executor.Execute(txn, TestQueries()[0]);
  EXPECT_EQ(result.trace, nullptr);
  instance.txns.Abort(&txn);
}

TEST(TraceTest, JsonRoundTrips) {
  Instance instance;
  QueryExecutor executor(&instance.table);
  Transaction txn = instance.txns.Begin();
  for (const Query& query : TestQueries()) {
    const ExplainResult explain = executor.Explain(txn, query, 2);
    ASSERT_NE(explain.result.trace, nullptr);
    TraceSpan parsed;
    ASSERT_TRUE(ParseTraceJson(explain.json, &parsed)) << explain.json;
    EXPECT_TRUE(parsed == *explain.result.trace);
  }
  instance.txns.Abort(&txn);
}

TEST(TraceTest, JsonRoundTripsEscapedStrings) {
  TraceSpan root;
  root.name = "weird \"name\"\twith\nescapes\\";
  root.simulated_ns = 17;
  root.wall_ns = 23;
  root.Annotate("key \"x\"", "value\n\t\\ \"y\"");
  TraceSpan child;
  child.name = "child";
  child.Annotate("a", "b");
  root.children.push_back(std::move(child));

  TraceSpan parsed;
  ASSERT_TRUE(ParseTraceJson(RenderTraceJson(root), &parsed));
  EXPECT_TRUE(parsed == root);
}

TEST(TraceTest, ParseRejectsMalformedJson) {
  TraceSpan out;
  EXPECT_FALSE(ParseTraceJson("", &out));
  EXPECT_FALSE(ParseTraceJson("{}", &out));
  EXPECT_FALSE(ParseTraceJson("{\"name\": \"x\"}", &out));
  EXPECT_FALSE(ParseTraceJson(
      "{\"name\": \"x\", \"simulated_ns\": 1, \"wall_ns\": 2, "
      "\"annotations\": {}, \"children\": [}",
      &out));
}

TEST(TraceTest, ParseBoundsNestingDepth) {
  auto nested = [](size_t depth) {
    std::string json;
    for (size_t i = 0; i < depth; ++i) {
      json += "{\"name\":\"s\",\"simulated_ns\":0,\"wall_ns\":0,"
              "\"annotations\":{},\"children\":[";
    }
    for (size_t i = 0; i < depth; ++i) json += "]}";
    return json;
  };
  TraceSpan out;
  EXPECT_TRUE(ParseTraceJson(nested(kMaxTraceDepth), &out));
  EXPECT_FALSE(ParseTraceJson(nested(kMaxTraceDepth + 1), &out));
  // Deep enough to overflow the stack if each level recursed unchecked.
  EXPECT_FALSE(ParseTraceJson(nested(100000), &out));
}

TEST(TraceTest, TextRenderingShowsTreeStructure) {
  TraceSpan root;
  root.name = "execute";
  root.simulated_ns = 100;
  TraceSpan child;
  child.name = "scan";
  child.Annotate("column", "grp");
  root.children.push_back(std::move(child));
  const std::string text = RenderTraceText(root);
  EXPECT_NE(text.find("execute [sim=100ns"), std::string::npos);
  EXPECT_NE(text.find("  scan"), std::string::npos);
  EXPECT_NE(text.find("column=grp"), std::string::npos);
}

/// A query over DRAM-resident columns only: it touches no page cache, so
/// concurrent executions share only read-only table state and atomic
/// counters.
Query DramOnlyQuery() {
  Query query;
  query.predicates.push_back(Predicate::Equals(1, Value(int32_t{7})));
  query.projections = {0};
  query.aggregates = {Aggregate::Count()};
  return query;
}

/// Two threads Explain while a third executes with the trace knob off: the
/// plain executions must stay untraced and the knob must never flip.
TEST(TraceTest, ExplainTracesOnlyItsOwnCall) {
  Instance instance;
  SetTraceEnabled(false);
  QueryExecutor executor(&instance.table);
  Transaction explain_txns[2] = {instance.txns.Begin(),
                                 instance.txns.Begin()};
  Transaction plain_txn = instance.txns.Begin();
  std::atomic<bool> go{false};
  std::atomic<int> explaining{2};
  std::atomic<bool> plain_traced{false};
  std::atomic<bool> knob_flipped{false};
  std::atomic<int> explains_without_trace{0};
  auto explain = [&](int t) {
    while (!go.load()) std::this_thread::yield();
    for (int i = 0; i < 200; ++i) {
      const ExplainResult e =
          executor.Explain(explain_txns[t], DramOnlyQuery(), 1);
      if (e.result.trace == nullptr || e.json.empty()) {
        explains_without_trace.fetch_add(1);
      }
    }
    explaining.fetch_sub(1);
  };
  std::thread first(explain, 0);
  std::thread second(explain, 1);
  size_t plain_runs = 0;
  std::thread plain([&] {
    while (!go.load()) std::this_thread::yield();
    while (explaining.load() > 0) {
      if (TraceEnabled()) knob_flipped = true;
      if (executor.Execute(plain_txn, DramOnlyQuery(), 1).trace != nullptr) {
        plain_traced = true;
      }
      ++plain_runs;
    }
  });
  go = true;
  first.join();
  second.join();
  plain.join();
  for (Transaction& txn : explain_txns) instance.txns.Abort(&txn);
  instance.txns.Abort(&plain_txn);
  EXPECT_EQ(explains_without_trace.load(), 0);
  EXPECT_FALSE(plain_traced.load())
      << "a plain Execute got a trace tree while Explain ran ("
      << plain_runs << " plain runs)";
  EXPECT_FALSE(knob_flipped.load()) << "Explain changed TraceEnabled()";
  EXPECT_FALSE(TraceEnabled());
}

// Golden pin of every view the executor derives from one execution: the
// EXPLAIN tree (text and JSON, wall time zeroed), the kept workload
// observation fields, the phase vector, candidate trace, IoStats and the
// hytap_query_* metric deltas. Each block is pinned by an FNV-1a digest of
// its text; a mismatch prints the full text.

Schema GoldenSchema() {
  Schema schema;
  schema.push_back({"id", DataType::kInt32, 0});
  schema.push_back({"grp", DataType::kInt32, 0});
  schema.push_back({"amount", DataType::kDouble, 0});
  schema.push_back({"qty", DataType::kInt64, 0});
  schema.push_back({"code", DataType::kInt32, 0});
  return schema;
}

Row GoldenRow(int32_t id, Rng& rng) {
  const int32_t grp = int32_t(rng.NextInt(0, 40));
  const double amount = rng.NextDouble(0.0, 1000.0);
  const int64_t qty = int64_t(rng.NextInt(1, 10000));
  const int32_t code = int32_t(rng.NextInt(0, 20));
  return Row{Value(id), Value(grp), Value(amount), Value(qty), Value(code)};
}

/// `main_rows` = 0 leaves every row in the delta. Otherwise id, grp and
/// code are MRCs (id indexed, grp+code under a composite index) and
/// amount, qty live in the SSCG.
struct GoldenInstance {
  TransactionManager txns;
  SecondaryStore store;
  BufferManager buffers;
  Table table;

  GoldenInstance(size_t main_rows, const FaultConfig& faults)
      : store(DeviceKind::kCssd, /*timing_seed=*/11),
        buffers(&store, /*frame_count=*/4),
        table("golden", GoldenSchema(), &txns, &store, &buffers) {
    Rng rng(97);
    if (main_rows > 0) {
      std::vector<Row> rows;
      rows.reserve(main_rows);
      for (size_t r = 0; r < main_rows; ++r) {
        rows.push_back(GoldenRow(int32_t(r), rng));
      }
      table.BulkLoad(rows);
      EXPECT_TRUE(table.SetPlacement({true, true, false, false, true}).ok());
      EXPECT_TRUE(table.CreateIndex({0}).ok());
      EXPECT_TRUE(table.CreateIndex({1, 4}).ok());
      table.BuildStatistics();
    }
    if (faults.AnyFaults()) store.ConfigureFaults(faults);
    Transaction txn = txns.Begin();
    for (size_t d = 0; d < 80; ++d) {
      EXPECT_TRUE(table.Insert(txn, GoldenRow(int32_t(main_rows + d), rng))
                      .ok());
    }
    txns.Commit(&txn);
  }
};

std::vector<Query> GoldenQueries() {
  std::vector<Query> queries;
  auto add = [&](std::vector<Predicate> predicates,
                 std::vector<ColumnId> projections,
                 std::vector<Aggregate> aggregates) {
    Query query;
    query.predicates = std::move(predicates);
    query.projections = std::move(projections);
    query.aggregates = std::move(aggregates);
    queries.push_back(std::move(query));
  };
  // Single-column index equality, then an SSCG probe.
  add({Predicate::Equals(0, Value(int32_t{123})),
       Predicate::Between(2, Value(0.0), Value(800.0))},
      {0, 2}, {});
  // Index range, then an SSCG rescan (candidates above the threshold).
  add({Predicate::Between(0, Value(int32_t{100}), Value(int32_t{700})),
       Predicate::Between(3, Value(int64_t{1}), Value(int64_t{6000}))},
      {}, {Aggregate::Count()});
  // Composite index on (grp, code).
  add({Predicate::Equals(1, Value(int32_t{3})),
       Predicate::Equals(4, Value(int32_t{7}))},
      {2}, {Aggregate::Sum(2)});
  // DRAM scan, DRAM probe, SSCG probe.
  add({Predicate::Equals(1, Value(int32_t{5})),
       Predicate::Between(4, Value(int32_t{0}), Value(int32_t{9})),
       Predicate::Between(2, Value(100.0), Value(700.0))},
      {}, {Aggregate::Count()});
  // SSCG scan, then an SSCG rescan.
  add({Predicate::Between(3, Value(int64_t{100}), Value(int64_t{9000})),
       Predicate::Between(2, Value(0.0), Value(900.0))},
      {}, {Aggregate::Count()});
  // The first step empties the candidates.
  add({Predicate::Equals(4, Value(int32_t{999})),
       Predicate::Between(2, Value(0.0), Value(500.0)),
       Predicate::Between(3, Value(int64_t{1}), Value(int64_t{500}))},
      {0}, {Aggregate::Count()});
  // No predicates.
  add({}, {}, {Aggregate::Count(), Aggregate::Sum(2)});
  // Projections and every aggregate kind.
  add({Predicate::Equals(1, Value(int32_t{2}))}, {0, 2, 3},
      {Aggregate::Count(), Aggregate::Sum(3), Aggregate::Min(2),
       Aggregate::Max(0)});
  return queries;
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string ZeroWall(const std::string& rendered) {
  static const std::regex kText("wall=[0-9]+ns");
  static const std::regex kJson("\"wall_ns\": [0-9]+");
  return std::regex_replace(std::regex_replace(rendered, kText, "wall=0ns"),
                            kJson, "\"wall_ns\": 0");
}

bool IsQueryMetric(const std::string& name) {
  return name.rfind("hytap_query_", 0) == 0;
}

std::string QueryMetricDeltas(const MetricsSnapshot& before,
                              const MetricsSnapshot& after) {
  std::ostringstream out;
  for (const auto& [name, value] : after.counters) {
    if (!IsQueryMetric(name)) continue;
    const auto it = before.counters.find(name);
    out << ' ' << name << '+'
        << value - (it == before.counters.end() ? 0 : it->second);
  }
  for (const auto& [name, data] : after.histograms) {
    if (!IsQueryMetric(name)) continue;
    const auto it = before.histograms.find(name);
    const bool fresh = it == before.histograms.end();
    out << ' ' << name << '+' << data.count - (fresh ? 0 : it->second.count)
        << '/' << data.sum - (fresh ? 0 : it->second.sum);
    for (size_t b = 0; b < data.counts.size(); ++b) {
      const uint64_t d = data.counts[b] - (fresh ? 0 : it->second.counts[b]);
      if (d != 0) out << " b" << b << '+' << d;
    }
  }
  return out.str();
}

std::string IoText(const IoStats& io) {
  std::ostringstream out;
  out << "device=" << io.device_ns << " dram=" << io.dram_ns
      << " backoff=" << io.retry_backoff_ns << " reads=" << io.page_reads
      << " hits=" << io.cache_hits << " retries=" << io.retries
      << " morsels_pruned=" << io.morsels_pruned
      << " pages_pruned=" << io.pages_pruned
      << " checksum=" << io.checksum_failures
      << " verify=" << io.verify_failures
      << " quarantined=" << io.quarantined_pages;
  return out.str();
}

std::string ObservationText(const QueryObservation& obs, bool filled) {
  std::ostringstream out;
  out << "filled=" << filled << " failed=" << obs.failed
      << " sim=" << obs.simulated_ns << " device=" << obs.device_ns
      << " reads=" << obs.page_reads << " mm_bytes=" << obs.mm_bytes
      << " mm_scan_ns=" << obs.mm_scan_ns << " filtered=";
  for (ColumnId c : obs.filtered_columns) out << c << ',';
  for (const StepObservation& step : obs.steps) {
    char selectivity[32];
    std::snprintf(selectivity, sizeof(selectivity), "%.17g",
                  step.observed_selectivity);
    out << " [" << step.column << ':' << int(step.kind) << ':'
        << step.candidates_in << ':' << selectivity << ']';
  }
  return out.str();
}

/// Runs every golden query on a fresh instance and renders all views.
/// `fault_seed` = 0 runs without injected faults.
std::string GoldenRun(size_t main_rows, uint32_t threads, uint64_t fault_seed,
                      bool cancelled) {
  FaultConfig faults;
  if (fault_seed != 0) {
    faults.seed = fault_seed;
    faults.read_error_rate = 0.1;
    faults.read_corruption_rate = 0.05;
    faults.page_failure_rate = 0.04;
    faults.latency_spike_rate = 0.05;
  }
  GoldenInstance instance(main_rows, faults);
  WorkloadMonitor monitor(instance.table.column_count());
  QueryExecutor executor(&instance.table, /*probe_threshold=*/0.05);
  executor.set_monitor(&monitor);
  const std::atomic<bool> stop{cancelled};
  const std::vector<Query> queries = GoldenQueries();
  Transaction txn = instance.txns.Begin();
  std::ostringstream out;
  SetTraceEnabled(true);
  // Two passes: under faults the second one meets pages the first left
  // dead, so probes and rescans fail too.
  for (size_t i = 0; i < 2 * queries.size(); ++i) {
    const size_t q = i % queries.size();
    QueryObservation obs;
    bool filled = false;
    PhaseVector phases;
    ExecOptions opts;
    opts.threads = threads;
    opts.stop = &stop;
    opts.observation = &obs;
    opts.observation_filled = &filled;
    opts.phases = &phases;
    const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
    const QueryResult result = executor.Execute(txn, queries[q], opts);
    const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
    out << "query " << q << " status=" << result.status.ToString()
        << " positions=" << result.positions.size()
        << " rows=" << result.rows.size() << '\n';
    if (result.trace != nullptr) {
      out << ZeroWall(RenderTraceText(*result.trace))
          << ZeroWall(RenderTraceJson(*result.trace));
    }
    out << "obs " << ObservationText(obs, filled) << '\n';
    out << "phases";
    for (uint64_t ns : phases.ns) out << ' ' << ns;
    out << "\ncandidates";
    for (size_t c : result.candidate_trace) out << ' ' << c;
    out << "\nio " << IoText(result.io) << '\n';
    out << "metrics" << QueryMetricDeltas(before, after) << '\n';
  }
  SetTraceEnabled(false);
  if (!cancelled) {
    for (size_t q = 0; q < queries.size(); ++q) {
      const ExplainResult explain = executor.Explain(txn, queries[q], threads);
      out << "explain " << q << '\n'
          << ZeroWall(explain.text) << ZeroWall(explain.json);
    }
  }
  instance.txns.Abort(&txn);
  return out.str();
}

TEST(TraceTest, GoldenExecutorViews) {
  SetMetricsEnabled(true);
  struct Golden {
    size_t main_rows;
    uint32_t threads;
    uint64_t fault_seed;
    bool cancelled;
    uint64_t digest;
  };
  const Golden kGolden[] = {
      {4000, 1, 0, false, 0x0ba28954acecff34ull},
      {4000, 4, 0, false, 0x99fff5e923b3a472ull},
      {4000, 1, 13, false, 0x95d6784dbd7f7ae0ull},
      {4000, 4, 13, false, 0x5d296bd126dba9ceull},
      {4000, 1, 29, false, 0x5c3bb5b8b6c386bfull},
      {4000, 4, 29, false, 0xde634455dbabf84full},
      {4000, 1, 0, true, 0x307cca80d1e17d5bull},
      {0, 1, 0, false, 0x81b1bffa26e27741ull},
      {0, 4, 0, false, 0xf565b99cd3888a11ull},
      {0, 4, 13, false, 0xf565b99cd3888a11ull},
      {0, 1, 0, true, 0xc3ec213d8de9b43bull},
  };
  for (const Golden& golden : kGolden) {
    const std::string text = GoldenRun(golden.main_rows, golden.threads,
                                       golden.fault_seed, golden.cancelled);
    char digest[32];
    std::snprintf(digest, sizeof(digest), "0x%016llxull",
                  (unsigned long long)Fnv1a(text));
    EXPECT_EQ(Fnv1a(text), golden.digest)
        << "main_rows=" << golden.main_rows << " threads=" << golden.threads
        << " fault_seed=" << golden.fault_seed
        << " cancelled=" << golden.cancelled
        << " digest " << digest << ", full text:\n"
        << text;
  }
}

}  // namespace
}  // namespace hytap
