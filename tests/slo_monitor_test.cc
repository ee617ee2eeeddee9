// SLO burn rates of the latency profiler: the per-class objective check fed
// from the serving flush.
#include "serving/latency_profiler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/phases.h"
#include "common/random.h"
#include "common/trace.h"
#include "core/tiered_table.h"
#include "serving/session_manager.h"
#include "workload/enterprise.h"

namespace hytap {
namespace {

/// Tight objectives and a 10% error budget: one all-bad window burns 10x.
LatencyProfiler::Options TightOptions() {
  LatencyProfiler::Options options;
  options.oltp_slo_ns = 1000;
  options.olap_slo_ns = 1000;
  options.target_ppm = 900'000;  // 10% of observations may violate
  options.burn_threshold = 1.0;
  options.fast_windows = 1;
  options.slow_windows = 2;
  return options;
}

/// Feeds one executed ticket whose whole simulated latency is scan/probe
/// time, so the phase vector sums to it as the executor's would.
void Feed(LatencyProfiler* profiler, QueryClass cls, uint64_t latency_ns,
          bool failed, uint64_t window, uint64_t sim_ns, uint64_t ticket) {
  PhaseVector phases;
  phases[QueryPhase::kScanProbe] = latency_ns;
  profiler->Observe(ticket, cls,
                    failed ? StatusCode::kUnavailable : StatusCode::kOk,
                    /*executed=*/true, latency_ns, phases, /*trace=*/nullptr,
                    window, sim_ns);
}

TEST(SloMonitorTest, BurnRateBreachesAndClears) {
  setenv("HYTAP_FLIGHT_DUMP", "0", 1);
  LatencyProfiler slo(TightOptions());

  // Window 1: every observation violates — fast and slow burn are both 10x
  // the budget, so the class breaches exactly once.
  for (uint64_t i = 0; i < 10; ++i) {
    Feed(&slo, QueryClass::kOltp, /*latency_ns=*/5000, /*failed=*/false,
         /*window=*/1, /*sim_ns=*/1000 + i, /*ticket=*/i);
  }
  LatencyProfiler::ClassSnapshot snap = slo.Snapshot(QueryClass::kOltp);
  EXPECT_EQ(snap.slo_observations, 10u);
  EXPECT_EQ(snap.violations, 10u);
  EXPECT_GT(snap.fast_burn, 1.0);
  EXPECT_TRUE(snap.breached);
  EXPECT_EQ(snap.breaches, 1u);
  EXPECT_EQ(snap.clears, 0u);
  // The other class is untouched.
  EXPECT_EQ(slo.Snapshot(QueryClass::kOlap).slo_observations, 0u);
  EXPECT_FALSE(slo.Snapshot(QueryClass::kOlap).breached);

  // Window 2: a flood of good observations drains the fast window — breach
  // requires BOTH windows hot, so the class clears.
  for (uint64_t i = 0; i < 100; ++i) {
    Feed(&slo, QueryClass::kOltp, 10, false, 2, 2000 + i, 100 + i);
  }
  snap = slo.Snapshot(QueryClass::kOltp);
  EXPECT_FALSE(snap.breached);
  EXPECT_EQ(snap.breaches, 1u);
  EXPECT_EQ(snap.clears, 1u);
  EXPECT_EQ(snap.fast_burn, 0.0);
}

TEST(SloMonitorTest, FailuresAndSlowQueriesBothBurnBudget) {
  LatencyProfiler::Options options = TightOptions();
  options.burn_threshold = 1e9;  // never breach: this test is about counting
  LatencyProfiler slo(options);

  // A failed query burns budget even when it was fast.
  Feed(&slo, QueryClass::kOlap, 10, /*failed=*/true, 1, 1, 0);
  // A slow success burns budget too.
  Feed(&slo, QueryClass::kOlap, 5000, /*failed=*/false, 1, 2, 1);
  // A fast success does not.
  Feed(&slo, QueryClass::kOlap, 10, /*failed=*/false, 1, 3, 2);

  const LatencyProfiler::ClassSnapshot snap = slo.Snapshot(QueryClass::kOlap);
  EXPECT_EQ(snap.slo_observations, 3u);
  EXPECT_EQ(snap.violations, 2u);
  EXPECT_FALSE(snap.breached);
}

TEST(SloMonitorTest, BreachWritesAnomalyDump) {
  const std::string dir = ::testing::TempDir() + "slo_dumps";
  std::filesystem::create_directories(dir);
  setenv("HYTAP_FLIGHT_DUMP", "1", 1);
  setenv("HYTAP_FLIGHT_DUMP_DIR", dir.c_str(), 1);
  FlightRecorder::Global().Reset();
  SetFlightRecorderEnabled(true);

  LatencyProfiler slo(TightOptions());
  for (uint64_t i = 0; i < 10; ++i) {
    Feed(&slo, QueryClass::kOltp, 5000, false, 1, 1000 + i, i);
  }
  EXPECT_TRUE(slo.Snapshot(QueryClass::kOltp).breached);
  unsetenv("HYTAP_FLIGHT_DUMP_DIR");
  setenv("HYTAP_FLIGHT_DUMP", "0", 1);

  // The breach transition fired the anomaly hook: a decodable postmortem
  // dump landed in the directory, reason-slugged and rate-limited from 0.
  const std::string path = dir + "/flight_000_slo_breach_oltp.bin";
  std::vector<FlightEvent> events;
  std::string reason;
  ASSERT_TRUE(ReadFlightDump(path, &events, &reason))
      << "no anomaly dump at " << path;
  EXPECT_EQ(reason, "slo_breach_oltp");
  bool saw_breach = false;
  bool saw_anomaly = false;
  for (const FlightEvent& event : events) {
    if (event.type == static_cast<uint16_t>(FlightEventType::kSloBreach) &&
        event.a == uint64_t(QueryClass::kOltp)) {
      saw_breach = true;
    }
    if (event.type == static_cast<uint16_t>(FlightEventType::kAnomaly) &&
        event.code == static_cast<uint16_t>(AnomalyKind::kSloBreach)) {
      saw_anomaly = true;
    }
  }
  EXPECT_TRUE(saw_breach);
  EXPECT_TRUE(saw_anomaly);
  std::filesystem::remove_all(dir);
}

TEST(SloMonitorTest, ExportGaugesPopulatesRegistry) {
  SetMetricsEnabled(true);
  LatencyProfiler slo(TightOptions());
  for (uint64_t i = 0; i < 10; ++i) {
    Feed(&slo, QueryClass::kOltp, 5000, false, 1, 1000 + i, i);
  }
  slo.ExportMetrics();
  const std::string text =
      MetricsRegistry::Global().Snapshot().ToPrometheusText();
  for (const char* family :
       {"hytap_slo_observations_total", "hytap_slo_violations_total",
        "hytap_slo_breaches_total", "hytap_slo_clears_total",
        "hytap_slo_oltp_burn_milli", "hytap_slo_olap_burn_milli",
        "hytap_slo_oltp_breached", "hytap_slo_olap_breached"}) {
    EXPECT_NE(text.find(family), std::string::npos)
        << "family " << family << " missing from the registry";
  }
}

// ---------------------------------------------------------------------------
// Serving integration: fed from the ticket-order reorder-buffer flush, the
// monitor's state is bit-identical across worker counts.
// ---------------------------------------------------------------------------

constexpr size_t kRows = 1000;
constexpr size_t kCols = 8;
constexpr size_t kQueries = 32;
constexpr uint64_t kSeed = 42;

std::unique_ptr<TieredTable> MakeSmallBseg() {
  EnterpriseProfile profile = BsegProfile();
  profile.attribute_count = kCols;
  TieredTableOptions options;
  options.device = DeviceKind::kCssd;
  options.timing_seed = kSeed;
  options.monitor.window_ns = 1'000'000'000'000'000ull;
  auto table = std::make_unique<TieredTable>(
      "bseg", MakeEnterpriseSchema(profile), options);
  table->Load(GenerateEnterpriseRows(profile, kRows, kSeed));
  return table;
}

struct SloSignature {
  uint64_t observations[kQueryClassCount] = {};
  uint64_t violations[kQueryClassCount] = {};
  uint64_t breaches[kQueryClassCount] = {};
  double fast_burn[kQueryClassCount] = {};
  double slow_burn[kQueryClassCount] = {};
  bool breached[kQueryClassCount] = {};

  bool operator==(const SloSignature& other) const {
    for (size_t c = 0; c < kQueryClassCount; ++c) {
      if (observations[c] != other.observations[c] ||
          violations[c] != other.violations[c] ||
          breaches[c] != other.breaches[c] ||
          fast_burn[c] != other.fast_burn[c] ||
          slow_burn[c] != other.slow_burn[c] ||
          breached[c] != other.breached[c]) {
        return false;
      }
    }
    return true;
  }
};

/// One serving run with a single profiler attached.
struct ServingRun {
  SloSignature slo;
  std::string report_text;
  std::string report_json;
  LatencyProfiler::ClassSnapshot oltp;
};

ServingRun RunServing(uint32_t workers, bool monitor = true) {
  setenv("HYTAP_FLIGHT_DUMP", "0", 1);
  auto table = MakeSmallBseg();
  if (!monitor) table->executor().set_monitor(nullptr);
  SessionOptions so;
  so.max_sessions = workers;
  so.default_threads = 1;
  SessionManager& sm = table->EnableServing(so);

  // An impossible OLTP objective: every OLTP session violates, OLAP never
  // does — the per-class split must survive any dispatch interleaving.
  LatencyProfiler::Options options;
  options.oltp_slo_ns = 1;
  options.olap_slo_ns = uint64_t(1) << 62;
  options.target_ppm = 999'000;
  LatencyProfiler slo(options);
  sm.set_latency_profiler(&slo);

  Rng rng(kSeed * 7919 + 1);
  std::vector<SessionHandle> handles;
  for (size_t q = 0; q < kQueries; ++q) {
    Query query;
    const size_t col = 1 + size_t(rng.NextBounded(kCols - 1));
    query.predicates.push_back(
        Predicate::Equals(ColumnId(col), Value(int32_t(rng.NextBounded(8)))));
    query.aggregates = {Aggregate::Count()};
    SubmitOptions opts;
    opts.query_class = q % 2 == 0 ? QueryClass::kOltp : QueryClass::kOlap;
    opts.threads = 1;
    auto session = sm.Submit(query, opts);
    if (session.ok()) handles.push_back(*session);
  }
  for (const SessionHandle& session : handles) (void)session->Await();
  sm.Drain();
  sm.set_latency_profiler(nullptr);

  ServingRun run;
  for (size_t c = 0; c < kQueryClassCount; ++c) {
    const LatencyProfiler::ClassSnapshot snap = slo.Snapshot(QueryClass(c));
    run.slo.observations[c] = snap.slo_observations;
    run.slo.violations[c] = snap.violations;
    run.slo.breaches[c] = snap.breaches;
    run.slo.fast_burn[c] = snap.fast_burn;
    run.slo.slow_burn[c] = snap.slow_burn;
    run.slo.breached[c] = snap.breached;
  }
  run.report_text = slo.ReportText();
  run.report_json = slo.ReportJson();
  run.oltp = slo.Snapshot(QueryClass::kOltp);
  return run;
}

TEST(SloMonitorTest, ServingFeedIsDeterministicAcrossWorkers) {
  const SloSignature one = RunServing(1).slo;
  const SloSignature two = RunServing(2).slo;
  const SloSignature four = RunServing(4).slo;
  EXPECT_TRUE(one == two);
  EXPECT_TRUE(one == four);
  EXPECT_EQ(one.observations[size_t(QueryClass::kOltp)], kQueries / 2);
  EXPECT_EQ(one.violations[size_t(QueryClass::kOltp)], kQueries / 2);
  EXPECT_TRUE(one.breached[size_t(QueryClass::kOltp)]);
  EXPECT_EQ(one.violations[size_t(QueryClass::kOlap)], 0u);
  EXPECT_FALSE(one.breached[size_t(QueryClass::kOlap)]);
}

/// One attach feeds both folds from the same flush: the SLO state and the
/// phase report (critical paths included, tracing on) are byte-identical
/// at 1/2/4 workers.
TEST(SloMonitorTest, OneAttachGivesSloAndPhaseReportsAcrossWorkers) {
  const bool trace_was_enabled = TraceEnabled();
  SetTraceEnabled(true);
  const ServingRun one = RunServing(1);
  const ServingRun two = RunServing(2);
  const ServingRun four = RunServing(4);
  SetTraceEnabled(trace_was_enabled);
  EXPECT_TRUE(one.slo == two.slo);
  EXPECT_TRUE(one.slo == four.slo);
  EXPECT_EQ(one.report_text, two.report_text);
  EXPECT_EQ(one.report_text, four.report_text);
  EXPECT_EQ(one.report_json, two.report_json);
  EXPECT_EQ(one.report_json, four.report_json);
  // Both folds saw every OLTP ticket; under the 1 ns objective each one is
  // an SLO violation and a breach-attributed tail ticket.
  EXPECT_EQ(one.oltp.slo_observations, kQueries / 2);
  EXPECT_EQ(one.oltp.violations, kQueries / 2);
  EXPECT_EQ(one.oltp.observations, kQueries / 2);
  EXPECT_EQ(one.oltp.tail, kQueries / 2);
  EXPECT_NE(one.report_text.find("critical path:"), std::string::npos);
}

/// Verdicts read the execution's own simulated latency, not the workload
/// monitor's observation of it: with the monitor detached, the impossible
/// OLTP objective still flags every OLTP ticket and breaches.
TEST(SloMonitorTest, WorkloadMonitorOffStillJudgesLatency) {
  const ServingRun run = RunServing(2, /*monitor=*/false);
  const size_t oltp = size_t(QueryClass::kOltp);
  EXPECT_EQ(run.slo.observations[oltp], kQueries / 2);
  EXPECT_EQ(run.slo.violations[oltp], kQueries / 2);
  EXPECT_TRUE(run.slo.breached[oltp]);
}

}  // namespace
}  // namespace hytap
