// hytap-stats: run a trimmed enterprise workload through the engine and dump
// the process-wide metrics registry.
//
// Usage:
//   stats_cli [--rows <n>] [--cols <n>] [--queries <n>] [--threads <n>]
//       [--seed <n>] [--trace] [--trace-out <path>] [--doctor] [--solver]
//       [--sessions] [--slo] [--phases] [--phases-out <path>]
//       [--format prom|json] [--out <path>]
//
// Builds a BSEG-shaped table (column 0 is a unique document number held in
// DRAM, the remaining payload columns are mostly tiered), executes a seeded
// mix of point/range queries through the engine, and writes the resulting
// metrics snapshot in Prometheus text or JSON format. With --trace, the
// EXPLAIN operator tree of the first queries is printed too; with --doctor,
// the placement doctor's report on the observed workload is printed to
// stderr (its gauges always flow into the snapshot). With --solver, the
// doctor recommends through the anytime solver portfolio (50 ms deadline)
// so the hytap_solver_* family lands in the snapshot too. With --sessions,
// the query mix runs through the high-concurrency serving front end
// (EnableServing with the default SessionOptions) instead of the
// synchronous path, so the hytap_session_* family lands in the snapshot.
// With --slo or --phases (either implies --sessions), a latency profiler
// (DESIGN.md §17) attaches to the serving front end: it judges every
// terminal session against the per-class SLO objectives (OLTP objective
// and target from HYTAP_SLO_OLTP_NS / HYTAP_SLO_TARGET_PPM) and
// accounts every ticket's simulated latency into lifecycle phases, so the
// hytap_slo_* and hytap_phase_* families land in the snapshot. --slo prints
// the per-class burn rates to stderr; --phases prints the deterministic
// per-class phase report (text or JSON per --format) to stderr — or to
// --phases-out. Only --slo lets an SLO breach write a flight dump.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "core/placement_doctor.h"
#include "core/tiered_table.h"
#include "serving/latency_profiler.h"
#include "serving/session_manager.h"
#include "tools/cli_flags.h"
#include "workload/enterprise.h"

using namespace hytap;

namespace {

struct Options {
  size_t rows = 20000;
  size_t cols = 24;
  size_t queries = 32;
  uint32_t threads = 2;
  uint64_t seed = 42;
  bool trace = false;
  bool doctor = false;
  bool solver = false;
  bool sessions = false;
  bool slo = false;
  bool phases = false;
  std::string format = "prom";
  std::string out;
  std::string phases_out;
  std::string trace_out;
};

int Usage() {
  std::fprintf(stderr,
               "usage: stats_cli [--rows <n>] [--cols <n>] [--queries <n>] "
               "[--threads <n>] [--seed <n>] [--trace] [--trace-out <path>] "
               "[--doctor] [--solver] "
               "[--sessions] [--slo] [--phases] [--phases-out <path>] "
               "[--format prom|json] [--out <path>]\n");
  return 2;
}

/// Seeded conjunctive query mix: an equality on a low-cardinality payload
/// column plus a range over the document number, alternating with wide
/// payload-only ranges so both the probe and the rescan paths run.
std::vector<Query> MakeQueries(const Options& options, Rng* rng) {
  std::vector<Query> queries;
  queries.reserve(options.queries);
  const int32_t rows = int32_t(options.rows);
  for (size_t q = 0; q < options.queries; ++q) {
    Query query;
    const size_t payload =
        1 + size_t(rng->NextBounded(uint64_t(options.cols - 1)));
    if (q % 2 == 0) {
      // Selective: equality on a payload code, then a document-number range.
      query.predicates.push_back(
          Predicate::Equals(payload, Value(int32_t(rng->NextBounded(8)))));
      const int32_t lo = int32_t(rng->NextBounded(uint64_t(rows / 2)));
      query.predicates.push_back(
          Predicate::Between(0, Value(lo), Value(lo + rows / 4)));
    } else {
      // Wide: payload range that keeps most candidates (rescan side).
      query.predicates.push_back(
          Predicate::Between(payload, Value(int32_t{0}), Value(int32_t{150})));
      query.predicates.push_back(Predicate::Between(
          0, Value(int32_t{0}), Value(int32_t(rows - rows / 8))));
    }
    query.aggregates = {Aggregate::Count()};
    if (q % 3 == 0) query.projections = {ColumnId(0), ColumnId(payload)};
    queries.push_back(std::move(query));
  }
  return queries;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rows") {
      if (!NextNumber(argc, argv, &i, &options.rows)) return Usage();
    } else if (arg == "--cols") {
      if (!NextNumber(argc, argv, &i, &options.cols)) return Usage();
    } else if (arg == "--queries") {
      if (!NextNumber(argc, argv, &i, &options.queries)) return Usage();
    } else if (arg == "--threads") {
      if (!NextNumber(argc, argv, &i, &options.threads)) return Usage();
    } else if (arg == "--seed") {
      if (!NextNumber(argc, argv, &i, &options.seed)) return Usage();
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--trace-out") {
      if (i + 1 >= argc) return Usage();
      options.trace = true;
      options.trace_out = argv[++i];
    } else if (arg == "--doctor") {
      options.doctor = true;
    } else if (arg == "--solver") {
      options.solver = true;
    } else if (arg == "--sessions") {
      options.sessions = true;
    } else if (arg == "--slo") {
      options.slo = true;
      options.sessions = true;
    } else if (arg == "--phases") {
      options.phases = true;
      options.sessions = true;
    } else if (arg == "--phases-out") {
      if (i + 1 >= argc) return Usage();
      options.phases_out = argv[++i];
      options.phases = true;
      options.sessions = true;
    } else if (arg == "--format") {
      if (i + 1 >= argc) return Usage();
      options.format = argv[++i];
    } else if (arg == "--out") {
      if (i + 1 >= argc) return Usage();
      options.out = argv[++i];
    } else {
      return Usage();
    }
  }
  if (options.rows < 16 || options.cols < 2 || options.queries == 0 ||
      options.threads == 0 ||
      (options.format != "prom" && options.format != "json")) {
    return Usage();
  }

  SetMetricsEnabled(true);
  // The profiler that --phases attaches also judges the SLOs, and a breach
  // dumps the flight recorder into HYTAP_FLIGHT_DUMP_DIR (default: the
  // working directory). Only --slo asks for that postmortem.
  if (!options.slo) setenv("HYTAP_FLIGHT_DUMP", "0", /*overwrite=*/1);

  // Trimmed BSEG: same column-cardinality shape, CLI-sized width.
  EnterpriseProfile profile = BsegProfile();
  profile.attribute_count = options.cols;
  TieredTableOptions table_options;
  table_options.device = DeviceKind::kCssd;
  table_options.timing_seed = options.seed;
  TieredTable table("bseg", MakeEnterpriseSchema(profile), table_options);
  table.Load(GenerateEnterpriseRows(profile, options.rows, options.seed));

  // Document number stays in DRAM; most payload columns are evicted (the
  // paper's BSEG placement: the hot filtered minority pins, the rest tiers).
  std::vector<bool> in_dram(options.cols, false);
  in_dram[0] = true;
  for (size_t c = 1; c < options.cols; c += 5) in_dram[c] = true;
  auto placed = table.ApplyPlacement(in_dram);
  if (!placed.ok()) {
    std::fprintf(stderr, "placement failed: %s\n",
                 placed.status().ToString().c_str());
    return 1;
  }

  Rng rng(options.seed * 7919 + 1);
  const std::vector<Query> queries = MakeQueries(options, &rng);
  Transaction txn = table.Begin();
  size_t failures = 0;
  uint64_t total_rows = 0;
  if (options.trace) {
    // EXPLAIN path: traced, unrecorded (keeps plan cache/monitor counts
    // at one entry per issued query).
    for (size_t q = 0; q < 2 && q < queries.size(); ++q) {
      QueryExecutor executor(&table.table());
      const ExplainResult explain =
          executor.Explain(txn, queries[q], options.threads);
      std::printf("--- EXPLAIN query %zu ---\n%s", q, explain.text.c_str());
      // The first traced tree doubles as the machine-readable span input
      // for flight_decode_cli --trace (RenderTraceJson schema).
      if (q == 0 && !options.trace_out.empty()) {
        std::FILE* f = std::fopen(options.trace_out.c_str(), "w");
        if (f == nullptr) {
          std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
          return 1;
        }
        std::fputs(explain.json.c_str(), f);
        std::fclose(f);
        std::fprintf(stderr, "explain json written to %s\n",
                     options.trace_out.c_str());
      }
    }
  }
  if (options.sessions) {
    // Serving path: admission-controlled concurrent sessions; alternate the
    // priority class so both per-class latency histograms populate.
    SessionManager& sm = table.EnableServing();
    LatencyProfiler profiler(LatencyProfiler::Options::FromEnv());
    if (options.slo || options.phases) sm.set_latency_profiler(&profiler);
    std::vector<SessionHandle> handles;
    handles.reserve(queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      SubmitOptions sopts;
      sopts.query_class =
          q % 2 == 0 ? QueryClass::kOltp : QueryClass::kOlap;
      sopts.threads = options.threads;
      auto session = sm.Submit(queries[q], sopts);
      if (!session.ok()) {
        ++failures;
        continue;
      }
      handles.push_back(*session);
    }
    for (const SessionHandle& session : handles) {
      const QueryResult result = session->Await();
      if (!result.status.ok()) ++failures;
      total_rows += result.positions.size();
    }
    sm.Drain();
    std::fprintf(stderr,
                 "served %zu sessions over %zu workers (queue cap %zu): "
                 "%zu queued, %zu in flight after drain\n",
                 (size_t)sm.tickets_issued(), sm.options().max_sessions,
                 sm.options().queue_capacity, sm.queued(), sm.in_flight());
    sm.set_latency_profiler(nullptr);
    if (options.slo || options.phases) profiler.ExportMetrics();
    if (options.slo) {
      for (size_t cls = 0; cls < kQueryClassCount; ++cls) {
        const LatencyProfiler::ClassSnapshot snap =
            profiler.Snapshot(QueryClass(cls));
        std::fprintf(stderr,
                     "slo[%s]: %llu observed, %llu violations, "
                     "burn fast=%.3f slow=%.3f%s\n",
                     cls == 0 ? "oltp" : "olap",
                     (unsigned long long)snap.slo_observations,
                     (unsigned long long)snap.violations, snap.fast_burn,
                     snap.slow_burn, snap.breached ? " BREACHED" : "");
      }
    }
    if (options.phases) {
      const std::string phase_report = options.format == "json"
                                           ? profiler.ReportJson()
                                           : profiler.ReportText();
      if (options.phases_out.empty()) {
        std::fputs(phase_report.c_str(), stderr);
      } else {
        FILE* pf = std::fopen(options.phases_out.c_str(), "w");
        if (pf == nullptr) {
          std::fprintf(stderr, "cannot write %s\n",
                       options.phases_out.c_str());
          return 1;
        }
        std::fputs(phase_report.c_str(), pf);
        std::fclose(pf);
        std::fprintf(stderr, "phase report written to %s\n",
                     options.phases_out.c_str());
      }
    }
  } else {
    for (size_t q = 0; q < queries.size(); ++q) {
      const QueryResult result =
          table.Execute(txn, queries[q], options.threads);
      if (!result.status.ok()) ++failures;
      total_rows += result.positions.size();
    }
  }
  table.Commit(&txn);
  std::fprintf(stderr,
               "ran %zu queries over %zu x %zu rows (%u threads): "
               "%llu qualifying rows, %zu failures\n",
               queries.size(), options.rows, options.cols, options.threads,
               (unsigned long long)total_rows, failures);
  std::fprintf(stderr,
               "workload drift: %.4f (window-over-window TV distance, "
               "%zu live windows)\n",
               table.monitor().Drift(), table.monitor().window_count());

  // Always refresh the hytap_doctor_* gauges so the exported snapshot has
  // them; --doctor additionally prints the human-readable report, --solver
  // routes the recommendation through the anytime portfolio so the
  // hytap_solver_* family is populated too.
  DoctorOptions doctor_options;
  if (options.solver) {
    doctor_options.use_portfolio = true;
    doctor_options.portfolio.budget_ms = 50.0;
  }
  PlacementDoctor doctor(doctor_options);
  const DoctorReport report = doctor.Diagnose(table);
  if (options.doctor) {
    std::fprintf(stderr, "%s", report.ToText().c_str());
  }

  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const std::string rendered = options.format == "json"
                                   ? snapshot.ToJson()
                                   : snapshot.ToPrometheusText();
  if (options.out.empty()) {
    std::fputs(rendered.c_str(), stdout);
  } else {
    FILE* f = std::fopen(options.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", options.out.c_str());
      return 1;
    }
    std::fputs(rendered.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "metrics written to %s\n", options.out.c_str());
  }
  return failures == 0 ? 0 : 1;
}
