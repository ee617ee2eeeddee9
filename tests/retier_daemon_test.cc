#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "core/retier_daemon.h"
#include "selection/cost_model.h"
#include "selection/reallocation.h"
#include "workload/enterprise.h"

namespace hytap {
namespace {

constexpr size_t kRows = 3000;
constexpr size_t kCols = 16;
constexpr size_t kQueriesPerPhase = 32;
constexpr uint64_t kSeed = 42;

// The hot set is a third of the payload; phase B flips it to the opposite
// end of the schema (the Table-1 skew-flip scenario).
constexpr size_t kHotCount = 5;
constexpr size_t kHotA = 1;
constexpr size_t kHotB = kCols - kHotCount;

std::unique_ptr<TieredTable> MakeBseg(size_t rows = kRows) {
  EnterpriseProfile profile = BsegProfile();
  profile.attribute_count = kCols;
  TieredTableOptions options;
  options.device = DeviceKind::kCssd;
  options.timing_seed = kSeed;
  // Phases are separated via ForceRoll(): make windows effectively
  // unbounded on the simulated clock so each phase stays in one window.
  options.monitor.window_ns = 1'000'000'000'000'000ull;
  auto table = std::make_unique<TieredTable>(
      "bseg", MakeEnterpriseSchema(profile), options);
  table->Load(GenerateEnterpriseRows(profile, rows, kSeed));
  return table;
}

/// Seeded conjunctive mix of `queries` queries concentrated on `hot_count`
/// payload columns starting at `hot_base`. A fresh Rng per phase keeps every
/// phase-A (and every phase-B) query sequence identical, so alternating
/// phases aggregate to the same mixed workload — the oscillation test
/// depends on that.
void RunPhase(TieredTable* table, size_t hot_base, size_t hot_count,
              uint32_t threads, size_t queries = kQueriesPerPhase) {
  Rng rng(kSeed * 7919 + hot_base);
  Transaction txn = table->Begin();
  for (size_t q = 0; q < queries; ++q) {
    Query query;
    const size_t hot = hot_base + size_t(rng.NextBounded(hot_count));
    query.predicates.push_back(
        Predicate::Equals(ColumnId(hot), Value(int32_t(rng.NextBounded(8)))));
    if (q % 3 == 0) {
      const size_t other = hot_base + size_t(rng.NextBounded(hot_count));
      if (other != hot) {
        query.predicates.push_back(Predicate::Between(
            ColumnId(other), Value(int32_t{0}), Value(int32_t{40})));
      }
    }
    query.aggregates = {Aggregate::Count()};
    (void)table->Execute(txn, query, threads);
  }
  table->Commit(&txn);
}

double TotalBytes(const TieredTable& table) {
  double total = 0.0;
  for (ColumnId c = 0; c < table.table().column_count(); ++c) {
    total += double(table.table().ColumnDramBytes(c));
  }
  return total;
}

uint64_t MaxColumnBytes(const TieredTable& table) {
  uint64_t max_bytes = 0;
  for (ColumnId c = 0; c < table.table().column_count(); ++c) {
    max_bytes = std::max<uint64_t>(max_bytes, table.table().ColumnDramBytes(c));
  }
  return max_bytes;
}

RetierOptions TestOptions(const TieredTable& table) {
  RetierOptions options;
  options.drift_threshold = 0.25;
  options.min_improvement_pct = 1.0;
  options.dwell_windows = 0;
  options.periodic_windows = 1;
  options.bytes_per_window = 0;  // unthrottled unless a test overrides
  options.budget_bytes = 0.4 * TotalBytes(table);
  options.recent_windows = 1;
  options.amortization_windows = 16;
  return options;
}

/// Drains the active plan: rolls the monitor window and ticks until the
/// daemon is idle. Returns the tick reports, one per window.
std::vector<RetierTickReport> DrainPlan(TieredTable* table,
                                        RetierDaemon* daemon,
                                        size_t max_windows = 64) {
  std::vector<RetierTickReport> reports;
  for (size_t i = 0; i < max_windows; ++i) {
    if (daemon->state() == RetierState::kIdle) break;
    table->monitor().ForceRoll();
    reports.push_back(daemon->Tick());
  }
  return reports;
}

/// Full-table consistency probe: qualifying rows and COUNT of a wide scan
/// touching every payload column's tier.
QueryResult ProbeAll(TieredTable* table, uint32_t threads = 1) {
  Query query;
  query.predicates.push_back(Predicate::Between(
      ColumnId(0), Value(int32_t{0}), Value(int32_t(kRows))));
  query.aggregates = {Aggregate::Count()};
  Transaction txn = table->Begin();
  QueryResult result = table->ExecuteUnrecorded(txn, query, threads);
  table->Commit(&txn);
  return result;
}

TEST(RetierDaemonTest, ConvergesAfterSkewFlip) {
  auto table = MakeBseg();
  RetierDaemon daemon(table.get(), TestOptions(*table));

  // Phase A: first evaluation (periodic trigger) optimizes the placement.
  RunPhase(table.get(), kHotA, kHotCount, /*threads=*/1);
  RetierTickReport tick = daemon.Tick();
  EXPECT_TRUE(tick.evaluated);
  EXPECT_TRUE(tick.plan_started);
  EXPECT_TRUE(tick.plan_completed);  // unthrottled: drains in one tick
  // One non-empty window: no drift yet, the periodic trigger fired.
  EXPECT_EQ(tick.reason, "periodic");
  for (size_t c = kHotA; c < kHotA + kHotCount; ++c) {
    EXPECT_EQ(table->table().location(ColumnId(c)), ColumnLocation::kDram)
        << "hot column " << c << " not in DRAM after phase A";
  }

  // Skew flip: drift triggers a re-plan that loads the new hot set.
  table->monitor().ForceRoll();
  RunPhase(table.get(), kHotB, kHotCount, /*threads=*/1);
  tick = daemon.Tick();
  EXPECT_TRUE(tick.evaluated);
  EXPECT_EQ(tick.reason, "drift");
  EXPECT_TRUE(tick.plan_completed);
  for (size_t c = kHotB; c < kHotB + kHotCount; ++c) {
    EXPECT_EQ(table->table().location(ColumnId(c)), ColumnLocation::kDram)
        << "hot column " << c << " not in DRAM after the flip";
  }
  ASSERT_EQ(daemon.history().size(), 2u);
  EXPECT_TRUE(daemon.history()[1].done);
  EXPECT_GT(daemon.history()[1].applied_steps, 0u);
  EXPECT_GT(daemon.history()[1].improvement_pct, 1.0);

  // Converged: re-evaluating the same workload holds (no thrash).
  tick = daemon.Tick();
  EXPECT_FALSE(tick.plan_started);
}

TEST(RetierDaemonTest, FirstEvaluationIsPeriodicWithoutDrift) {
  auto table = MakeBseg();
  RetierDaemon daemon(table.get(), TestOptions(*table));
  RunPhase(table.get(), kHotA, kHotCount, 1);
  const RetierTickReport tick = daemon.Tick();
  EXPECT_TRUE(tick.evaluated);
  // One non-empty window: drift is 0, the periodic trigger fires.
  EXPECT_EQ(tick.drift, 0.0);
  EXPECT_TRUE(tick.plan_started);
}

TEST(RetierDaemonTest, ThrottleBoundsPerWindowBytes) {
  auto table = MakeBseg();
  RetierOptions options = TestOptions(*table);
  // Roughly one column move per window: the plan must spread over windows.
  options.bytes_per_window = MaxColumnBytes(*table) + 1024;
  RetierDaemon daemon(table.get(), options);

  RunPhase(table.get(), kHotA, kHotCount, 1);
  RetierTickReport tick = daemon.Tick();
  ASSERT_TRUE(tick.plan_started);
  EXPECT_LE(tick.window_bytes, options.bytes_per_window);
  DrainPlan(table.get(), &daemon);
  ASSERT_EQ(daemon.state(), RetierState::kIdle);
  ASSERT_EQ(daemon.history().size(), 1u);
  const RetierPlan& plan = daemon.history()[0];
  EXPECT_TRUE(plan.done);
  EXPECT_GT(plan.applied_steps, 1u);
  EXPECT_EQ(plan.skipped_steps, 0u);

  // Per-window migration bytes never exceed the throttle budget, and the
  // plan genuinely spread across more than one window.
  std::map<uint64_t, uint64_t> bytes_by_window;
  for (const RetierStep& step : plan.steps) {
    if (step.outcome == RetierStepOutcome::kApplied) {
      bytes_by_window[step.window] += step.bytes;
    }
  }
  EXPECT_GT(bytes_by_window.size(), 1u);
  for (const auto& [window, bytes] : bytes_by_window) {
    EXPECT_LE(bytes, options.bytes_per_window) << "window " << window;
  }
}

/// DRAM bytes of the columns the current placement keeps in DRAM.
double PlacedDramBytes(const TieredTable& table) {
  const std::vector<bool>& placement = table.table().placement();
  double total = 0.0;
  for (ColumnId c = 0; c < placement.size(); ++c) {
    if (placement[c]) total += double(table.table().ColumnDramBytes(c));
  }
  return total;
}

/// F(current placement) against the recomputed integer optimum at the same
/// budget on `workload`, as a relative gap in percent. A placement over the
/// budget can undercut the optimum, so the gap is only meaningful (and only
/// accepted) for one that fits.
double OptimalityGapPct(const TieredTable& table, const Workload& workload,
                        double budget_bytes) {
  EXPECT_LE(PlacedDramBytes(table), budget_bytes) << "placement over budget";
  const std::vector<bool>& placement = table.table().placement();
  const std::vector<uint8_t> current(placement.begin(), placement.end());
  const double current_cost =
      CostModel(workload, ScanCostParams()).ScanCost(current);
  SelectionProblem problem;
  problem.workload = &workload;
  problem.budget_bytes = budget_bytes;
  const SelectionResult optimum = SelectIntegerOptimal(problem);
  if (optimum.scan_cost <= 0.0) return 0.0;
  return 100.0 * (current_cost - optimum.scan_cost) / optimum.scan_cost;
}

TEST(RetierDaemonTest, ThrottledPlanReachesOptimumAfterSkewFlip) {
  // A 2000-row table, 24 queries per phase and the default amortization
  // horizon; the throttle admits about one column move per window.
  auto table = MakeBseg(/*rows=*/2000);
  RetierOptions options = TestOptions(*table);
  options.amortization_windows = RetierOptions().amortization_windows;
  options.bytes_per_window = MaxColumnBytes(*table) + 1024;
  RetierDaemon daemon(table.get(), options);
  uint64_t max_window_bytes = 0;
  // The table loads all-DRAM, over the budget, so the placement must fit
  // only once phase A's plan has drained; from then on, after every step.
  bool fits_budget = false;
  auto tick = [&] {
    max_window_bytes = std::max(max_window_bytes, daemon.Tick().window_bytes);
    if (fits_budget) {
      EXPECT_LE(PlacedDramBytes(*table), options.budget_bytes)
          << "placement over budget after a tick";
    }
  };
  auto drain = [&] {
    size_t windows = 0;
    for (; windows < 64 && daemon.state() != RetierState::kIdle; ++windows) {
      table->monitor().ForceRoll();
      tick();
    }
    return windows;
  };

  // Phase A: observe, optimize, drain the throttled plan.
  RunPhase(table.get(), kHotA, kHotCount, /*threads=*/2, /*queries=*/24);
  const Workload workload_a = table->monitor().ToWorkload(table->table(), 1);
  tick();
  drain();
  EXPECT_LE(OptimalityGapPct(*table, workload_a, options.budget_bytes), 5.0);
  fits_budget = true;

  // Skew flip: the phase-A placement is far from the new optimum, and the
  // throttled re-plan closes the gap over at least two windows.
  table->monitor().ForceRoll();
  RunPhase(table.get(), kHotB, kHotCount, /*threads=*/2, /*queries=*/24);
  const Workload workload_b = table->monitor().ToWorkload(table->table(), 1);
  EXPECT_GT(OptimalityGapPct(*table, workload_b, options.budget_bytes), 5.0);
  tick();
  const size_t windows_to_converge = drain() + 1;
  EXPECT_LE(OptimalityGapPct(*table, workload_b, options.budget_bytes), 5.0);
  EXPECT_GE(windows_to_converge, 2u);

  // Every window's migration bytes, from the ticks and from the plans' own
  // step accounting, stay within the throttle.
  for (const RetierPlan& plan : daemon.history()) {
    std::map<uint64_t, uint64_t> bytes_by_window;
    for (const RetierStep& step : plan.steps) {
      if (step.outcome == RetierStepOutcome::kApplied) {
        bytes_by_window[step.window] += step.bytes;
      }
    }
    for (const auto& [window, bytes] : bytes_by_window) {
      max_window_bytes = std::max(max_window_bytes, bytes);
    }
  }
  EXPECT_LE(max_window_bytes, options.bytes_per_window);

  // The ticks exported every re-tiering family and the drift gauge they
  // key on.
  const std::string prometheus =
      MetricsRegistry::Global().Snapshot().ToPrometheusText();
  for (const char* family :
       {"hytap_retier_ticks_total", "hytap_retier_evaluations_total",
        "hytap_retier_plans_started_total",
        "hytap_retier_plans_completed_total",
        "hytap_retier_plans_aborted_total", "hytap_retier_plans_held_total",
        "hytap_retier_steps_applied_total",
        "hytap_retier_steps_quarantined_total",
        "hytap_retier_steps_skipped_total", "hytap_retier_moved_bytes_total",
        "hytap_retier_state", "hytap_retier_window_bytes",
        "hytap_retier_last_improvement_pct_milli", "hytap_retier_beta_milli",
        "hytap_workload_drift"}) {
    EXPECT_NE(prometheus.find(std::string("# TYPE ") + family + " "),
              std::string::npos)
        << family;
  }
}

TEST(RetierDaemonTest, OversizedStepsAreSkippedNotAttempted) {
  auto table = MakeBseg();
  RetierOptions options = TestOptions(*table);
  options.bytes_per_window = 1;  // nothing fits: every wanted move oversized
  RetierDaemon daemon(table.get(), options);
  RunPhase(table.get(), kHotA, kHotCount, 1);
  const RetierTickReport tick = daemon.Tick();
  EXPECT_TRUE(tick.evaluated);
  EXPECT_FALSE(tick.plan_started);
  EXPECT_TRUE(tick.held);
  EXPECT_EQ(tick.reason, "oversized");
  // Placement untouched: all columns still DRAM-resident.
  for (ColumnId c = 0; c < table->table().column_count(); ++c) {
    EXPECT_EQ(table->table().location(c), ColumnLocation::kDram);
  }
}

TEST(RetierDaemonTest, AbortStopsMidPlan) {
  auto table = MakeBseg();
  const QueryResult reference = ProbeAll(table.get());
  RetierOptions options = TestOptions(*table);
  options.bytes_per_window = MaxColumnBytes(*table) + 1024;
  RetierDaemon daemon(table.get(), options);

  RunPhase(table.get(), kHotA, kHotCount, 1);
  RetierTickReport tick = daemon.Tick();
  ASSERT_TRUE(tick.plan_started);
  ASSERT_EQ(daemon.state(), RetierState::kMigrating);
  ASSERT_GT(daemon.steps_remaining(), 0u);

  daemon.RequestAbort();
  table->monitor().ForceRoll();
  tick = daemon.Tick();
  EXPECT_TRUE(tick.plan_aborted);
  EXPECT_EQ(tick.reason, "aborted");
  EXPECT_EQ(tick.steps_applied, 0u);
  EXPECT_EQ(daemon.state(), RetierState::kIdle);
  ASSERT_EQ(daemon.history().size(), 1u);
  const RetierPlan& plan = daemon.history()[0];
  EXPECT_TRUE(plan.aborted);
  EXPECT_GT(plan.aborted_steps, 0u);
  EXPECT_GT(plan.applied_steps, 0u);  // it really was mid-plan

  // The intermediate placement is consistent and fully queryable.
  const QueryResult probe = ProbeAll(table.get());
  ASSERT_TRUE(probe.status.ok());
  EXPECT_EQ(probe.positions, reference.positions);
  EXPECT_EQ(probe.aggregate_values, reference.aggregate_values);

  // An abort while idle is a no-op.
  daemon.RequestAbort();
  table->monitor().ForceRoll();
  tick = daemon.Tick();
  EXPECT_FALSE(tick.plan_aborted);
}

TEST(RetierDaemonTest, ChaosQuarantinesStepAndContinuesPlan) {
  auto table = MakeBseg();
  const QueryResult reference = ProbeAll(table.get());
  RetierDaemon daemon(table.get(), TestOptions(*table));
  RunPhase(table.get(), kHotA, kHotCount, 1);

  // Arm seeded silent write corruption mid-run: eviction writes corrupt on
  // the media and only verify-by-read-back catches them.
  FaultConfig faults;
  faults.seed = 1;
  faults.write_corruption_rate = 0.02;
  table->store().ConfigureFaults(faults);

  const RetierTickReport tick = daemon.Tick();
  ASSERT_TRUE(tick.plan_started);
  DrainPlan(table.get(), &daemon);
  ASSERT_EQ(daemon.state(), RetierState::kIdle);
  ASSERT_EQ(daemon.history().size(), 1u);
  const RetierPlan& plan = daemon.history()[0];
  EXPECT_TRUE(plan.done);
  ASSERT_GT(plan.quarantined_steps, 0u) << "seed produced no quarantine";
  ASSERT_GT(plan.applied_steps, 0u) << "seed quarantined every step";
  // Corruption is caught by VerifyPage read-back (kDataLoss), not by the
  // buffered ReadPage checksum counter — assert on the write-side stat.
  EXPECT_GT(table->store().fault_stats().corrupted_writes, 0u);

  // The plan continued past the quarantined step: applied work follows it
  // in the (rebuilt) queue.
  size_t first_quarantined = plan.steps.size();
  size_t last_applied = 0;
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    if (plan.steps[i].outcome == RetierStepOutcome::kQuarantined) {
      first_quarantined = std::min(first_quarantined, i);
    }
    if (plan.steps[i].outcome == RetierStepOutcome::kApplied) {
      last_applied = i;
    }
  }
  EXPECT_LT(first_quarantined, last_applied);

  // Quarantined columns deterministically aborted to DRAM and are frozen.
  for (const RetierStep& step : plan.steps) {
    if (step.outcome != RetierStepOutcome::kQuarantined) continue;
    EXPECT_TRUE(daemon.IsQuarantined(step.column));
    EXPECT_EQ(table->table().location(step.column), ColumnLocation::kDram);
  }

  // No torn state: with faults disarmed, the chaos table answers exactly
  // like the untouched reference.
  table->store().ConfigureFaults(FaultConfig());
  const QueryResult probe = ProbeAll(table.get());
  ASSERT_TRUE(probe.status.ok());
  EXPECT_EQ(probe.positions, reference.positions);
  EXPECT_EQ(probe.aggregate_values, reference.aggregate_values);

  // A quarantined column is pinned for later plans: a re-evaluation on the
  // flipped workload never steps it again.
  table->monitor().ForceRoll();
  RunPhase(table.get(), kHotB, kHotCount, 1);
  (void)daemon.Tick();
  DrainPlan(table.get(), &daemon);
  for (size_t p = 1; p < daemon.history().size(); ++p) {
    for (const RetierStep& step : daemon.history()[p].steps) {
      EXPECT_FALSE(daemon.IsQuarantined(step.column))
          << "plan " << p << " touched quarantined column " << step.column;
    }
  }
}

TEST(RetierDaemonTest, HysteresisDwellSuppressesReevaluation) {
  auto table = MakeBseg();
  RetierOptions options = TestOptions(*table);
  options.dwell_windows = 3;
  RetierDaemon daemon(table.get(), options);
  RunPhase(table.get(), kHotA, kHotCount, 1);
  RetierTickReport tick = daemon.Tick();
  ASSERT_TRUE(tick.plan_completed);
  const uint64_t plan_window = tick.window;

  // The two windows after the completed plan are inside the dwell period.
  for (int i = 0; i < 2; ++i) {
    table->monitor().ForceRoll();
    RunPhase(table.get(), kHotB, kHotCount, 1);  // drifted, but dwelling
    tick = daemon.Tick();
    EXPECT_FALSE(tick.evaluated);
    EXPECT_EQ(tick.reason, "dwell") << "window " << tick.window;
  }
  // The dwell expires and the drift finally triggers.
  table->monitor().ForceRoll();
  RunPhase(table.get(), kHotB, kHotCount, 1);
  tick = daemon.Tick();
  EXPECT_GE(tick.window, plan_window + options.dwell_windows);
  EXPECT_TRUE(tick.evaluated);
}

TEST(RetierDaemonTest, ZeroThrashUnderOscillatingWorkload) {
  auto table = MakeBseg();
  RetierOptions options = TestOptions(*table);
  options.recent_windows = 2;  // span both sides of the flip
  RetierDaemon daemon(table.get(), options);

  // Warm-up: phase A, then the first A/B transition re-plans on the mix.
  RunPhase(table.get(), kHotA, kHotCount, 1);
  (void)daemon.Tick();
  table->monitor().ForceRoll();
  RunPhase(table.get(), kHotB, kHotCount, 1);
  (void)daemon.Tick();
  DrainPlan(table.get(), &daemon);
  const size_t plans_after_warmup = daemon.history().size();
  const std::vector<bool> placement = table->table().placement();

  // Steady oscillation: the aggregated 2-window workload is the same A+B
  // mix every time, so every evaluation converges or lands in the deadband
  // — zero placement flip-flops.
  uint64_t applied = 0;
  for (int phase = 0; phase < 6; ++phase) {
    table->monitor().ForceRoll();
    RunPhase(table.get(), phase % 2 == 0 ? kHotA : kHotB, kHotCount, 1);
    const RetierTickReport tick = daemon.Tick();
    applied += tick.steps_applied;
    EXPECT_FALSE(tick.plan_started) << "phase " << phase << " thrashed";
  }
  EXPECT_EQ(applied, 0u);
  EXPECT_EQ(daemon.history().size(), plans_after_warmup);
  EXPECT_EQ(table->table().placement(), placement);
}

/// Signature of one full daemon scenario: everything that must be
/// bit-identical across worker counts.
struct ScenarioSignature {
  std::vector<bool> placement;
  std::vector<std::vector<std::pair<uint32_t, uint8_t>>> plan_steps;
  uint64_t moved_bytes = 0;
  uint64_t corrupted_writes = 0;
  uint64_t checksum_failures = 0;
  uint64_t retries = 0;
  uint64_t failed_reads = 0;
  std::vector<size_t> probe_rows;

  bool operator==(const ScenarioSignature& other) const {
    return placement == other.placement && plan_steps == other.plan_steps &&
           moved_bytes == other.moved_bytes &&
           corrupted_writes == other.corrupted_writes &&
           checksum_failures == other.checksum_failures &&
           retries == other.retries && failed_reads == other.failed_reads &&
           probe_rows == other.probe_rows;
  }
};

ScenarioSignature RunScenario(uint32_t threads) {
  auto table = MakeBseg();
  RetierDaemon daemon(table.get(), TestOptions(*table));
  ScenarioSignature signature;

  RunPhase(table.get(), kHotA, kHotCount, threads);
  (void)daemon.Tick();

  FaultConfig faults;
  faults.seed = 1;
  faults.write_corruption_rate = 0.02;
  table->store().ConfigureFaults(faults);

  table->monitor().ForceRoll();
  RunPhase(table.get(), kHotB, kHotCount, threads);
  (void)daemon.Tick();
  DrainPlan(table.get(), &daemon);

  signature.placement = table->table().placement();
  for (const RetierPlan& plan : daemon.history()) {
    std::vector<std::pair<uint32_t, uint8_t>> steps;
    for (const RetierStep& step : plan.steps) {
      steps.emplace_back(step.column, uint8_t(step.outcome));
    }
    signature.plan_steps.push_back(std::move(steps));
    signature.moved_bytes += plan.moved_bytes;
  }
  const FaultStats& stats = table->store().fault_stats();
  signature.corrupted_writes = stats.corrupted_writes;
  signature.checksum_failures = stats.checksum_failures;
  signature.retries = stats.retries;
  signature.failed_reads = stats.failed_reads;
  signature.probe_rows.push_back(ProbeAll(table.get(), threads).positions.size());
  return signature;
}

TEST(RetierDaemonTest, DeterministicAcrossThreadCounts) {
  // The engine-wide invariant, daemon on and chaos armed: results, final
  // placements, step outcomes, and fault schedules are bit-identical at
  // 1/2/4 requested threads (daemon decisions key to monitor windows on
  // the simulated clock, never wall time).
  const ScenarioSignature one = RunScenario(1);
  const ScenarioSignature two = RunScenario(2);
  const ScenarioSignature four = RunScenario(4);
  EXPECT_TRUE(one == two);
  EXPECT_TRUE(one == four);
  EXPECT_GT(one.moved_bytes, 0u);
  EXPECT_GT(one.corrupted_writes, 0u);
}

TEST(ReallocationTest, BetaFromMigrationWindowAmortizes) {
  EXPECT_DOUBLE_EQ(BetaFromMigrationWindow(8.0, 8), 1.0);
  EXPECT_DOUBLE_EQ(BetaFromMigrationWindow(8.0, 0), 8.0);  // clamped horizon
  EXPECT_DOUBLE_EQ(BetaFromMigrationWindow(0.0, 4), 0.0);
}

TEST(ReallocationTest, HighBetaFreezesLowBetaMoves) {
  const Workload workload = GenerateEnterpriseWorkload(BsegProfile(), kSeed);
  SelectionProblem problem;
  problem.workload = &workload;
  problem.budget_bytes = 0.4 * workload.TotalBytes();

  // The plain optimum at this budget, before any current allocation is set.
  const SelectionResult base = SelectIntegerOptimal(problem);
  problem.current.assign(workload.column_count(), 0);  // all-secondary y

  problem.beta = 0.0;
  const ReallocationResult eager = SelectWithReallocation(problem);
  EXPECT_GT(eager.planned_moves, 0u);
  EXPECT_GT(eager.improvement, 0.0);
  // beta = 0: the reallocation objective degenerates to the plain one.
  EXPECT_EQ(eager.selection.in_dram, base.in_dram);

  problem.beta = 1e12;  // moving can never pay for itself
  const ReallocationResult frozen = SelectWithReallocation(problem);
  EXPECT_EQ(frozen.planned_moves, 0u);
  EXPECT_EQ(frozen.selection.in_dram, problem.current);
  EXPECT_DOUBLE_EQ(frozen.improvement, 0.0);

  // The exact search and the explicit selector price the identical
  // objective.
  problem.beta = 0.5;
  const ReallocationResult exact = SelectWithReallocation(problem);
  const SelectionResult explicit_result = SelectExplicit(problem, true);
  EXPECT_LE(exact.selection.objective, explicit_result.objective + 1e-9);
  EXPECT_TRUE(exact.selection.optimal);
}

}  // namespace
}  // namespace hytap
