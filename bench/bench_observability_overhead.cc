// Overhead of the observability layer on the query fast path: the metrics
// registry, per-query tracing, the workload monitor, the flight recorder,
// and latency phase accounting (on the serving workload, the whole latency
// profiler with its SLO burn rates) on vs off, over a Fig. 9-style tiered
// table (DRAM id column + width-10 tiered payload) driven end-to-end through
// the executor, through the raw MRC scan kernel, and through the serving
// front end (whose admit/dispatch/complete path is the recorder's per-query hot
// path). Acceptance targets: metrics <= 3 %, monitor <= 3 %, flight
// recorder <= 3 %, phase accounting <= 3 %, tracing <= 10 % on the
// executor mix. Reps alternate configurations in-process (min-of-N,
// machine drift cancels). Results go to
// BENCH_observability_overhead.json; a missed gate fails the process
// (CI runs this with --small).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/phases.h"
#include "common/trace.h"
#include "core/tiered_table.h"
#include "query/executor.h"
#include "serving/latency_profiler.h"
#include "serving/session_manager.h"
#include "storage/sscg.h"
#include "workload/workload_monitor.h"
#include "storage/table.h"
#include "tiering/buffer_manager.h"
#include "tiering/secondary_store.h"
#include "txn/transaction_manager.h"

using namespace hytap;

namespace {

constexpr double kMetricsGatePct = 3.0;
constexpr double kMonitorGatePct = 3.0;
constexpr double kFlightGatePct = 3.0;
constexpr double kPhaseGatePct = 3.0;
constexpr double kTraceGatePct = 10.0;
/// Absolute slack added to each gate: sub-millisecond deltas on small CI
/// runs are timer noise, not overhead.
constexpr double kNoiseFloorSeconds = 0.0005;

struct Sample {
  const char* workload;
  double baseline_seconds;  // every observability layer off
  double metrics_seconds;   // metrics on only
  double trace_seconds;     // trace on only
  double monitor_seconds;   // workload monitor on only
  double flight_seconds;    // flight recorder on only
  double phases_seconds;    // phase accounting on only
  double MetricsPct() const {
    return 100.0 * (metrics_seconds - baseline_seconds) / baseline_seconds;
  }
  double TracePct() const {
    return 100.0 * (trace_seconds - baseline_seconds) / baseline_seconds;
  }
  double MonitorPct() const {
    return 100.0 * (monitor_seconds - baseline_seconds) / baseline_seconds;
  }
  double FlightPct() const {
    return 100.0 * (flight_seconds - baseline_seconds) / baseline_seconds;
  }
  double PhasesPct() const {
    return 100.0 * (phases_seconds - baseline_seconds) / baseline_seconds;
  }
};

std::vector<Sample> g_samples;

/// Runs `fn(monitor, phases)` under baseline / metrics-only / trace-only /
/// monitor-only / flight-only / phases-only configurations, alternating
/// within each rep after one untimed warmup, and keeps the best time per
/// configuration. Metrics, tracing and the flight recorder are process-wide
/// switches set here; the monitor and phase accounting are per-call opt-ins
/// that `fn` applies from its two arguments.
template <typename Fn>
Sample MeasureConfigs(const char* workload, int reps, Fn&& fn) {
  auto run = [&](bool metrics, bool trace, bool monitor, bool flight,
                 bool phases) {
    SetMetricsEnabled(metrics);
    SetTraceEnabled(trace);
    SetFlightRecorderEnabled(flight);
    bench::Stopwatch watch;
    fn(monitor, phases);
    return watch.Seconds();
  };
  run(false, false, false, false, false);
  Sample sample{workload, 1e100, 1e100, 1e100, 1e100, 1e100, 1e100};
  for (int r = 0; r < reps; ++r) {
    sample.baseline_seconds = std::min(sample.baseline_seconds,
                                       run(false, false, false, false, false));
    sample.metrics_seconds = std::min(sample.metrics_seconds,
                                      run(true, false, false, false, false));
    sample.trace_seconds = std::min(sample.trace_seconds,
                                    run(false, true, false, false, false));
    sample.monitor_seconds = std::min(sample.monitor_seconds,
                                      run(false, false, true, false, false));
    sample.flight_seconds = std::min(sample.flight_seconds,
                                     run(false, false, false, true, false));
    sample.phases_seconds = std::min(sample.phases_seconds,
                                     run(false, false, false, false, true));
  }
  // Engine defaults.
  SetMetricsEnabled(true);
  SetTraceEnabled(false);
  SetFlightRecorderEnabled(true);
  g_samples.push_back(sample);
  std::printf("  %-12s baseline: %9.2f ms   metrics: %9.2f ms (%+5.2f %%)   "
              "trace: %9.2f ms (%+5.2f %%)   monitor: %9.2f ms (%+5.2f %%)   "
              "flight: %9.2f ms (%+5.2f %%)   phases: %9.2f ms (%+5.2f %%)\n",
              workload, sample.baseline_seconds * 1e3,
              sample.metrics_seconds * 1e3, sample.MetricsPct(),
              sample.trace_seconds * 1e3, sample.TracePct(),
              sample.monitor_seconds * 1e3, sample.MonitorPct(),
              sample.flight_seconds * 1e3, sample.FlightPct(),
              sample.phases_seconds * 1e3, sample.PhasesPct());
  return sample;
}

bool GatePasses(const Sample& sample, double gate_pct, double on_seconds) {
  const double allowed = std::max(
      sample.baseline_seconds * gate_pct / 100.0, kNoiseFloorSeconds);
  return on_seconds - sample.baseline_seconds <= allowed;
}

void WriteJson(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < g_samples.size(); ++i) {
    const Sample& s = g_samples[i];
    std::fprintf(
        f,
        "  {\"workload\": \"%s\", \"baseline_seconds\": %.6f, "
        "\"metrics_seconds\": %.6f, \"trace_seconds\": %.6f, "
        "\"monitor_seconds\": %.6f, \"flight_seconds\": %.6f, "
        "\"phases_seconds\": %.6f, "
        "\"metrics_overhead_pct\": %.3f, \"trace_overhead_pct\": %.3f, "
        "\"monitor_overhead_pct\": %.3f, \"flight_overhead_pct\": %.3f, "
        "\"phases_overhead_pct\": %.3f}%s\n",
        s.workload, s.baseline_seconds, s.metrics_seconds, s.trace_seconds,
        s.monitor_seconds, s.flight_seconds, s.phases_seconds,
        s.MetricsPct(), s.TracePct(), s.MonitorPct(), s.FlightPct(),
        s.PhasesPct(), i + 1 < g_samples.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

constexpr size_t kPayloadWidth = 10;

Schema TableSchema() {
  Schema schema;
  schema.push_back({"id", DataType::kInt32, 0});
  for (size_t c = 0; c < kPayloadWidth; ++c) {
    schema.push_back({"p" + std::to_string(c), DataType::kInt32, 0});
  }
  return schema;
}

std::vector<Row> TableRows(size_t rows) {
  std::vector<Row> data;
  data.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    row.reserve(1 + kPayloadWidth);
    row.emplace_back(int32_t(r));
    for (size_t c = 0; c < kPayloadWidth; ++c) {
      row.emplace_back(int32_t((r * 31 + c) % 1000));
    }
    data.push_back(std::move(row));
  }
  return data;
}

/// Alternating selective (probe-side) and wide (rescan-side) conjunctions,
/// mirroring the Fig. 9 access patterns through the executor.
std::vector<Query> QueryMix(size_t rows) {
  std::vector<Query> queries;
  for (size_t q = 0; q < 8; ++q) {
    Query query;
    const ColumnId payload = ColumnId(1 + q % kPayloadWidth);
    if (q % 2 == 0) {
      const int32_t lo = int32_t((q * rows) / 16);
      query.predicates.push_back(Predicate::Between(
          0, Value(lo), Value(int32_t(lo + rows / 64))));
      query.predicates.push_back(
          Predicate::Equals(payload, Value(int32_t(q % 7))));
    } else {
      query.predicates.push_back(Predicate::Between(
          payload, Value(int32_t{0}), Value(int32_t{750})));
      query.predicates.push_back(Predicate::Between(
          0, Value(int32_t{0}), Value(int32_t(rows - 1))));
    }
    query.aggregates = {Aggregate::Count()};
    queries.push_back(std::move(query));
  }
  return queries;
}

}  // namespace

int main(int argc, char** argv) {
  const bool small = argc > 1 && std::string(argv[1]) == "--small";
  const size_t rows = small ? 50000 : 200000;
  const int reps = small ? 5 : 7;

  bench::PrintHeader("observability overhead: executor mix (Fig. 9 table)");
  Sample executor_sample;
  {
    TransactionManager txns;
    SecondaryStore store(DeviceKind::kCssd, 42);
    BufferManager buffers(&store, 1024);
    Table table("fig9", TableSchema(), &txns, &store, &buffers);
    table.BulkLoad(TableRows(rows));
    std::vector<bool> placement(1 + kPayloadWidth, false);
    placement[0] = true;
    if (!table.SetPlacement(placement).ok()) return 1;
    std::printf("%zu rows, id in DRAM, %zu payload columns tiered\n", rows,
                kPayloadWidth);

    QueryExecutor executor(&table);
    // The monitor config attaches a monitor, which exercises the full
    // observation path: per-step IoStats deltas, windowing, and the ring
    // roll on the simulated clock.
    WorkloadMonitor monitor(table.column_count());
    Transaction txn = txns.Begin();
    const std::vector<Query> queries = QueryMix(rows);
    // The phases config asks for the decomposition the way a serving
    // session does: a PhaseVector wired through ExecOptions.
    PhaseVector phases;
    ExecOptions eopts;
    eopts.threads = 2;
    executor_sample = MeasureConfigs("query_mix", reps, [&](bool monitored,
                                                            bool phased) {
      executor.set_monitor(monitored ? &monitor : nullptr);
      eopts.phases = phased ? &phases : nullptr;
      buffers.Clear();
      for (const Query& query : queries) {
        QueryResult result = executor.Execute(txn, query, eopts);
        if (!result.status.ok()) std::abort();
      }
    });
    txns.Abort(&txn);
  }

  bench::PrintHeader("observability overhead: raw MRC scan kernel");
  Sample scan_sample;
  {
    SecondaryStore store(DeviceKind::kCssd, 42);
    Schema schema = TableSchema();
    std::vector<ColumnId> members;
    for (ColumnId c = 0; c <= kPayloadWidth; ++c) members.push_back(c);
    Sscg sscg(RowLayout(schema, members), TableRows(rows), &store);
    BufferManager buffers(&store, 64);
    const size_t sweeps = small ? 4 : 8;
    scan_sample = MeasureConfigs("mrc_scan", reps, [&](bool, bool) {
      for (size_t s = 0; s < sweeps; ++s) {
        buffers.Clear();
        PositionList out;
        IoStats io;
        Value lo(int32_t{100}), hi(int32_t{400});
        sscg.ScanSlot(1, &lo, &hi, &buffers, 2, &out, &io);
        if (out.empty()) std::abort();
      }
    });
  }

  bench::PrintHeader("observability overhead: serving front end");
  Sample serving_sample;
  {
    // The serving path is where the always-on recorder actually writes:
    // admit + dispatch + terminal events per session, plus the ticket-order
    // flush. Sessions re-submit the executor mix through the front end.
    TieredTableOptions options;
    options.device = DeviceKind::kCssd;
    options.timing_seed = 42;
    TieredTable table("fig9srv", TableSchema(), options);
    table.Load(TableRows(small ? 20000 : 50000));
    SessionOptions so;
    so.max_sessions = 2;
    so.default_threads = 1;
    SessionManager& sm = table.EnableServing(so);
    // Only the phases config attaches the profiler, so it alone pays the
    // profiler's whole fold at every ticket-order flush: SLO burn rates plus
    // histograms, tail test and attribution walk. The table's monitor stays
    // attached in every config, the baseline included; no serving gate
    // reads the monitor sample.
    LatencyProfiler profiler;
    const std::vector<Query> queries = QueryMix(small ? 20000 : 50000);
    serving_sample = MeasureConfigs("serving_mix", reps, [&](bool,
                                                             bool phased) {
      sm.set_latency_profiler(phased ? &profiler : nullptr);
      std::vector<SessionHandle> handles;
      handles.reserve(queries.size() * 4);
      for (size_t pass = 0; pass < 4; ++pass) {
        for (const Query& query : queries) {
          SubmitOptions sopts;
          sopts.query_class = handles.size() % 2 == 0 ? QueryClass::kOltp
                                                      : QueryClass::kOlap;
          auto session = sm.Submit(query, sopts);
          if (!session.ok()) std::abort();
          handles.push_back(*session);
        }
      }
      for (const SessionHandle& session : handles) {
        if (!session->Await().status.ok()) std::abort();
      }
    });
    sm.Drain();
    sm.set_latency_profiler(nullptr);  // profiler dies before the table
  }

  const bool metrics_ok =
      GatePasses(executor_sample, kMetricsGatePct,
                 executor_sample.metrics_seconds) &&
      GatePasses(scan_sample, kMetricsGatePct, scan_sample.metrics_seconds);
  // Tracing and the workload monitor live only on the executor's control
  // path; the raw scan kernel never sees those knobs, so their gates cover
  // the executor mix.
  const bool trace_ok = GatePasses(executor_sample, kTraceGatePct,
                                   executor_sample.trace_seconds);
  const bool monitor_ok = GatePasses(executor_sample, kMonitorGatePct,
                                     executor_sample.monitor_seconds);
  // The recorder gate covers every workload: the fast paths only pay the
  // enabled-check (executor / scan), the serving mix pays one locked ring
  // store per session event.
  const bool flight_ok =
      GatePasses(executor_sample, kFlightGatePct,
                 executor_sample.flight_seconds) &&
      GatePasses(scan_sample, kFlightGatePct, scan_sample.flight_seconds) &&
      GatePasses(serving_sample, kFlightGatePct,
                 serving_sample.flight_seconds);
  // Phase accounting touches the executor's pass boundaries (four IoStats
  // snapshots per query) and the serving flush (profiler fold per ticket,
  // SLO burn rates included); the raw scan kernel has no phase hook, so its
  // gate covers those two.
  const bool phases_ok =
      GatePasses(executor_sample, kPhaseGatePct,
                 executor_sample.phases_seconds) &&
      GatePasses(serving_sample, kPhaseGatePct,
                 serving_sample.phases_seconds);
  std::printf("\ntargets: metrics <= %.0f %% -> %s   trace <= %.0f %% -> %s   "
              "monitor <= %.0f %% -> %s   flight <= %.0f %% -> %s   "
              "phases <= %.0f %% -> %s\n",
              kMetricsGatePct, metrics_ok ? "PASS" : "MISS", kTraceGatePct,
              trace_ok ? "PASS" : "MISS", kMonitorGatePct,
              monitor_ok ? "PASS" : "MISS", kFlightGatePct,
              flight_ok ? "PASS" : "MISS", kPhaseGatePct,
              phases_ok ? "PASS" : "MISS");

  WriteJson("BENCH_observability_overhead.json");
  return metrics_ok && trace_ok && monitor_ok && flight_ok && phases_ok
             ? 0
             : 1;
}
