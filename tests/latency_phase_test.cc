#include "serving/latency_profiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/phases.h"
#include "common/trace.h"
#include "core/tiered_table.h"
#include "query/executor.h"
#include "serving/session_manager.h"
#include "workload/tpcc.h"

namespace hytap {
namespace {

std::unique_ptr<TieredTable> MakeOrderline(int orders_per_district = 20) {
  OrderlineParams params;
  params.warehouses = 2;
  params.districts_per_warehouse = 2;
  params.orders_per_district = orders_per_district;
  TieredTableOptions options;
  options.device = DeviceKind::kXpoint;
  auto table = std::make_unique<TieredTable>("orderline", OrderlineSchema(),
                                             options);
  table->Load(GenerateOrderlineRows(params));
  return table;
}

void EvictPayloadColumns(TieredTable* table) {
  std::vector<bool> placement(10, true);
  for (ColumnId c : {kOlDeliveryD, kOlQuantity, kOlAmount, kOlDistInfo}) {
    placement[c] = false;
  }
  ASSERT_TRUE(table->ApplyPlacement(placement).ok());
}

Query HeavyOlapQuery() {
  Query q;
  q.predicates.push_back(
      Predicate::AtLeast(kOlQuantity, Value(int32_t{0})));
  q.projections = {kOlDeliveryD, kOlQuantity, kOlAmount, kOlDistInfo};
  return q;
}

Row MakeOrderlineRow(int32_t order) {
  return Row{Value(int32_t{order}), Value(int32_t{1}), Value(int32_t{1}),
             Value(int32_t{1}),     Value(int32_t{1}), Value(int32_t{1}),
             Value(int64_t{0}),     Value(int32_t{5}), Value(1.0),
             Value(std::string("x"))};
}

/// The core invariant (DESIGN.md §17): the phase vector of every execution
/// partitions its end-to-end simulated latency exactly — no phase double
/// charges, nothing escapes the decomposition. Exercised across the whole
/// query mix with faults armed so retries/backoff and failed executions hit
/// the same invariant.
TEST(LatencyPhaseTest, PhaseVectorSumsToSimulatedLatency) {
  auto table = MakeOrderline(60);
  EvictPayloadColumns(table.get());
  FaultConfig faults;
  faults.seed = 7;
  faults.read_error_rate = 0.05;
  faults.read_corruption_rate = 0.02;
  faults.latency_spike_rate = 0.02;
  table->store().ConfigureFaults(faults);

  const std::vector<Query> mix = {
      DeliveryQuery(1, 1, 5),       HeavyOlapQuery(),
      ChQuery19(1, 1, 500, 1, 5),   DeliveryQuery(2, 2, 9),
      ChQuery19(2, 100, 400, 2, 4), DeliveryQuery(1, 2, 12),
  };
  Transaction txn = table->Begin();
  uint64_t retry_charge = 0;
  uint64_t store_charge = 0;
  size_t failures = 0;
  for (size_t i = 0; i < 24; ++i) {
    PhaseVector phases;
    ExecOptions opts;
    opts.phases = &phases;
    const QueryResult r =
        table->executor().Execute(txn, mix[i % mix.size()], opts);
    EXPECT_EQ(phases.Sum(), r.io.TotalNs()) << "query " << i;
    EXPECT_EQ(phases[QueryPhase::kStoreIo] + phases[QueryPhase::kRetryBackoff],
              r.io.device_ns)
        << "query " << i;
    retry_charge += phases[QueryPhase::kRetryBackoff];
    store_charge += phases[QueryPhase::kStoreIo];
    if (!r.status.ok()) ++failures;
  }
  // The evicted columns force secondary-store reads and the fault schedule
  // at this seed produces retries, so both device-side phases are exercised.
  EXPECT_GT(store_charge, 0u);
  EXPECT_GT(retry_charge, 0u);

  // Error path: a fresh (cold-cache) table with a high error rate and a
  // tight retry budget makes executions fail outright — the invariant must
  // hold there too (failed reads charge no latency, so the partial accrual
  // still partitions exactly).
  auto flaky = MakeOrderline(60);
  EvictPayloadColumns(flaky.get());
  faults.read_error_rate = 0.6;
  flaky->store().ConfigureFaults(faults);
  flaky->store().set_max_read_retries(1);
  Transaction flaky_txn = flaky->Begin();
  for (size_t i = 0; i < 12; ++i) {
    PhaseVector phases;
    ExecOptions opts;
    opts.phases = &phases;
    const QueryResult r =
        flaky->executor().Execute(flaky_txn, mix[i % mix.size()], opts);
    EXPECT_EQ(phases.Sum(), r.io.TotalNs()) << "faulted query " << i;
    if (!r.status.ok()) ++failures;
  }
  EXPECT_GT(failures, 0u);
}

TEST(LatencyPhaseTest, CancelledBeforeExecutionChargesNothing) {
  auto table = MakeOrderline();
  EvictPayloadColumns(table.get());
  std::atomic<bool> stop{true};
  PhaseVector phases;
  ExecOptions opts;
  opts.stop = &stop;
  opts.phases = &phases;
  Transaction txn = table->Begin();
  const QueryResult r = table->executor().Execute(txn, HeavyOlapQuery(), opts);
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(phases.Sum(), r.io.TotalNs());
}

/// Delta rows must be charged to the delta phase, not scan/probe: insert
/// uncheckpointed rows and verify the executed query charges kDelta.
TEST(LatencyPhaseTest, DeltaScanChargesDeltaPhase) {
  auto table = MakeOrderline();
  Transaction w = table->Begin();
  for (int32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(table->Insert(w, MakeOrderlineRow(2000 + i)).ok());
  }
  table->Commit(&w);

  Query probe;
  probe.predicates.push_back(
      Predicate::AtLeast(kOlOId, Value(int32_t{1999})));
  Transaction txn = table->Begin();
  PhaseVector phases;
  ExecOptions opts;
  opts.phases = &phases;
  const QueryResult r = table->executor().Execute(txn, probe, opts);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.positions.size(), 8u);
  // All qualifying rows live in the delta; the main-partition index probe
  // finds nothing, so the charge lands in the delta phase.
  EXPECT_GT(phases[QueryPhase::kDelta], 0u);
  EXPECT_EQ(phases.Sum(), r.io.TotalNs());
}

/// Runs the fixed serving workload and returns the profiler's reports.
struct ServingRun {
  std::string text;
  std::string json;
  LatencyProfiler::ClassSnapshot oltp;
  LatencyProfiler::ClassSnapshot olap;
};

ServingRun RunServingWorkload(size_t max_sessions, uint32_t threads,
                              bool serial) {
  FaultConfig faults;
  faults.seed = 7;
  faults.read_error_rate = 0.02;
  faults.read_corruption_rate = 0.01;
  faults.latency_spike_rate = 0.01;
  const std::vector<Query> mix = {
      DeliveryQuery(1, 1, 5),       HeavyOlapQuery(),
      ChQuery19(1, 1, 500, 1, 5),   DeliveryQuery(2, 2, 9),
      ChQuery19(2, 100, 400, 2, 4), DeliveryQuery(1, 2, 12),
  };
  constexpr size_t kQueries = 36;

  auto table = MakeOrderline();
  EvictPayloadColumns(table.get());
  table->store().ConfigureFaults(faults);
  SessionOptions so;
  so.max_sessions = max_sessions;
  so.default_threads = threads;
  SessionManager& sm = table->EnableServing(so);
  // The 1 ns objective also breaches the profiler's SLO fold; keep its
  // anomaly dumps out of the working directory.
  setenv("HYTAP_FLIGHT_DUMP", "0", 1);
  LatencyProfiler::Options po;
  po.oltp_slo_ns = 1;  // every executed OLTP ticket breaches -> attributions
  po.olap_slo_ns = 2'000'000'000;
  LatencyProfiler profiler(po);
  sm.set_latency_profiler(&profiler);

  std::vector<SessionHandle> handles;
  for (size_t i = 0; i < kQueries; ++i) {
    if (i % 8 == 3) {
      Transaction w = table->Begin();
      EXPECT_TRUE(table->Insert(w, MakeOrderlineRow(1000 + int32_t(i))).ok());
      table->Commit(&w);
    }
    SubmitOptions opts;
    opts.query_class = (i % 2 == 0) ? QueryClass::kOltp : QueryClass::kOlap;
    auto s = sm.Submit(mix[i % mix.size()], opts);
    EXPECT_TRUE(s.ok());
    if (serial) {
      (*s)->Await();
    } else {
      handles.push_back(*s);
    }
  }
  for (const SessionHandle& s : handles) s->Await();
  sm.Drain();
  ServingRun run;
  run.text = profiler.ReportText();
  run.json = profiler.ReportJson();
  run.oltp = profiler.Snapshot(QueryClass::kOltp);
  run.olap = profiler.Snapshot(QueryClass::kOlap);
  sm.set_latency_profiler(nullptr);
  return run;
}

/// The determinism tentpole for the profiler: phase reports and tail
/// attributions are computed purely from simulated time in ticket order, so
/// at every execution-thread count a serial single-worker run and a
/// concurrent 4-worker run render byte-identical reports under an armed
/// fault schedule (the worker count must never leak into attribution).
TEST(LatencyPhaseTest, ReportsBitIdenticalAcrossWorkerCounts) {
  for (uint32_t threads : {1u, 2u, 4u}) {
    const ServingRun baseline =
        RunServingWorkload(1, threads, /*serial=*/true);
    EXPECT_FALSE(baseline.text.empty());
    EXPECT_EQ(baseline.oltp.observations + baseline.olap.observations, 36u);
    EXPECT_EQ(baseline.oltp.cancelled, 0u);
    EXPECT_EQ(baseline.oltp.shed, 0u);
    // Sub-invariant: per class, the phase decomposition sums to the summed
    // latency.
    EXPECT_EQ(baseline.oltp.phase_sum.Sum(), baseline.oltp.latency_sum_ns);
    EXPECT_EQ(baseline.olap.phase_sum.Sum(), baseline.olap.latency_sum_ns);
    EXPECT_GT(baseline.oltp.tail, 0u);  // 1 ns OLTP objective: all breach

    for (size_t workers : {2u, 4u}) {
      const ServingRun concurrent =
          RunServingWorkload(workers, threads, /*serial=*/false);
      EXPECT_EQ(baseline.text, concurrent.text)
          << "report diverged at workers=" << workers
          << " threads=" << threads;
      EXPECT_EQ(baseline.json, concurrent.json)
          << "JSON diverged at workers=" << workers
          << " threads=" << threads;
    }
  }
}

/// Shed and queued-cancelled tickets never execute: the profiler must count
/// them (shed bucket) with a zero phase vector and zero latency.
TEST(LatencyPhaseTest, ShedAndQueuedCancelObserveZeroPhases) {
  auto table = MakeOrderline(60);
  EvictPayloadColumns(table.get());
  SessionOptions so;
  so.max_sessions = 1;
  SessionManager& sm = table->EnableServing(so);
  LatencyProfiler profiler;
  sm.set_latency_profiler(&profiler);

  // Shed: deadline already expired when the worker picks it up.
  SubmitOptions expired;
  expired.deadline_ns = SessionManager::NowNs() - 1;
  auto shed = sm.Submit(DeliveryQuery(1, 1, 3), expired);
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ((*shed)->Await().status.code(), StatusCode::kDeadlineExceeded);

  // Queued cancel: block the only worker, cancel the queued victim.
  auto blocker = sm.Submit(HeavyOlapQuery());
  ASSERT_TRUE(blocker.ok());
  auto victim = sm.Submit(DeliveryQuery(1, 1, 6));
  ASSERT_TRUE(victim.ok());
  (*victim)->Cancel();
  EXPECT_EQ((*victim)->Await().status.code(), StatusCode::kCancelled);
  EXPECT_TRUE((*blocker)->Await().status.ok());
  sm.Drain();

  const auto oltp = profiler.Snapshot(QueryClass::kOltp);
  const auto olap = profiler.Snapshot(QueryClass::kOlap);
  EXPECT_EQ(oltp.shed, 0u);
  EXPECT_EQ(olap.shed, 2u);  // default class is kOlap for both terminals
  EXPECT_EQ(olap.executed, 1u);  // the blocker
  // Shed tickets contributed nothing to the deterministic aggregates.
  EXPECT_EQ(olap.phase_sum.Sum(), olap.latency_sum_ns);
  sm.set_latency_profiler(nullptr);
}

/// Cancelled mid-execution: the invariant still holds for the partial
/// accrual, but the sample is excluded from the deterministic aggregates
/// (its magnitude depends on where the stop token landed).
TEST(LatencyPhaseTest, MidExecutionCancelExcludedFromAggregates) {
  LatencyProfiler profiler;
  PhaseVector partial;
  partial[QueryPhase::kScanProbe] = 500;
  partial[QueryPhase::kStoreIo] = 300;
  profiler.Observe(/*ticket=*/0, QueryClass::kOlap, StatusCode::kCancelled,
                   /*executed=*/true, partial.Sum(), partial,
                   /*trace=*/nullptr, /*window=*/1, /*sim_ns=*/800);
  PhaseVector full;
  full[QueryPhase::kScanProbe] = 1000;
  profiler.Observe(/*ticket=*/1, QueryClass::kOlap, StatusCode::kOk,
                   /*executed=*/true, 1000, full, nullptr, 1, 1800);
  const auto olap = profiler.Snapshot(QueryClass::kOlap);
  EXPECT_EQ(olap.observations, 2u);
  EXPECT_EQ(olap.cancelled, 1u);
  EXPECT_EQ(olap.executed, 1u);
  EXPECT_EQ(olap.latency_sum_ns, 1000u);
  EXPECT_EQ(olap.phase_sum.Sum(), 1000u);
  EXPECT_EQ(olap.phase_sum[QueryPhase::kStoreIo], 0u);
}

/// Tail attribution: a breaching ticket gets phases ranked by charge and a
/// critical-path walk down its trace tree picking the child with the
/// largest inclusive simulated time at every level.
TEST(LatencyPhaseTest, AttributionRanksPhasesAndWalksCriticalPath) {
  LatencyProfiler::Options po;
  po.oltp_slo_ns = 100;  // tiny objective so the sample below breaches
  LatencyProfiler profiler(po);

  TraceSpan root;
  root.name = "execute";
  root.simulated_ns = 900;
  TraceSpan fast;
  fast.name = "delta_scan";
  fast.simulated_ns = 100;
  TraceSpan slow;
  slow.name = "main_scan";
  slow.simulated_ns = 700;
  slow.annotations.emplace_back("est_selectivity", "0.10");
  slow.annotations.emplace_back("actual_selectivity", "0.85");
  TraceSpan leaf;
  leaf.name = "probe";
  leaf.simulated_ns = 400;
  slow.children.push_back(leaf);
  root.children.push_back(fast);
  root.children.push_back(slow);

  PhaseVector phases;
  phases[QueryPhase::kScanProbe] = 300;
  phases[QueryPhase::kStoreIo] = 500;
  phases[QueryPhase::kRetryBackoff] = 100;
  profiler.Observe(0, QueryClass::kOltp, StatusCode::kOk, true, 900, phases,
                   &root, 1, 900);

  const auto attributions = profiler.Attributions();
  ASSERT_EQ(attributions.size(), 1u);
  const auto& a = attributions[0];
  EXPECT_TRUE(a.slo_breach);
  EXPECT_EQ(a.dominant, QueryPhase::kStoreIo);
  ASSERT_EQ(a.ranked.size(), kQueryPhaseCount);
  EXPECT_EQ(a.ranked[0], QueryPhase::kStoreIo);
  EXPECT_EQ(a.ranked[1], QueryPhase::kScanProbe);
  EXPECT_EQ(a.ranked[2], QueryPhase::kRetryBackoff);
  // Critical path follows execute -> main_scan (700 > 100) -> probe.
  ASSERT_EQ(a.critical_path.size(), 3u);
  EXPECT_EQ(a.critical_path[0].name, "execute");
  EXPECT_EQ(a.critical_path[0].exclusive_ns, 100u);  // 900 - (100 + 700)
  EXPECT_EQ(a.critical_path[1].name, "main_scan");
  EXPECT_EQ(a.critical_path[1].est_selectivity, "0.10");
  EXPECT_EQ(a.critical_path[1].actual_selectivity, "0.85");
  EXPECT_EQ(a.critical_path[2].name, "probe");
  EXPECT_EQ(a.critical_path[2].inclusive_ns, 400u);
}

/// The attribution cap drops excess attributions loudly, never silently.
TEST(LatencyPhaseTest, AttributionCapCountsDropped) {
  LatencyProfiler::Options po;
  po.oltp_slo_ns = 1;
  po.max_attributions = 2;
  LatencyProfiler profiler(po);
  for (uint64_t t = 0; t < 5; ++t) {
    PhaseVector phases;
    phases[QueryPhase::kScanProbe] = 10 + t;
    profiler.Observe(t, QueryClass::kOltp, StatusCode::kOk, true, 10 + t,
                     phases, nullptr, 1, 100 * (t + 1));
  }
  EXPECT_EQ(profiler.Attributions().size(), 2u);
  EXPECT_EQ(profiler.attributions_dropped(), 3u);
  EXPECT_EQ(profiler.Snapshot(QueryClass::kOltp).tail, 5u);
}

}  // namespace
}  // namespace hytap
