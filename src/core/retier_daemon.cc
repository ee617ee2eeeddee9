#include "core/retier_daemon.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "selection/cost_model.h"

namespace hytap {

namespace {

/// Registry handles resolved once; updates gated on MetricsEnabled().
struct RetierMetrics {
  Counter* ticks;
  Counter* evaluations;
  Counter* plans_started;
  Counter* plans_completed;
  Counter* plans_aborted;
  Counter* plans_held;  // evaluation below the deadband / already converged
  Counter* steps_applied;
  Counter* steps_quarantined;
  Counter* steps_skipped;
  Counter* moved_bytes;
  Gauge* state;         // 0 = idle, 1 = migrating
  Gauge* window_bytes;  // bytes migrated in the current monitor window
  Gauge* last_improvement_pct_milli;
  Gauge* beta_milli;  // beta in milli-ns/byte

  static RetierMetrics& Get() {
    static RetierMetrics metrics;
    return metrics;
  }

 private:
  RetierMetrics() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    ticks = registry.GetCounter("hytap_retier_ticks_total");
    evaluations = registry.GetCounter("hytap_retier_evaluations_total");
    plans_started = registry.GetCounter("hytap_retier_plans_started_total");
    plans_completed =
        registry.GetCounter("hytap_retier_plans_completed_total");
    plans_aborted = registry.GetCounter("hytap_retier_plans_aborted_total");
    plans_held = registry.GetCounter("hytap_retier_plans_held_total");
    steps_applied = registry.GetCounter("hytap_retier_steps_applied_total");
    steps_quarantined =
        registry.GetCounter("hytap_retier_steps_quarantined_total");
    steps_skipped = registry.GetCounter("hytap_retier_steps_skipped_total");
    moved_bytes = registry.GetCounter("hytap_retier_moved_bytes_total");
    state = registry.GetGauge("hytap_retier_state");
    window_bytes = registry.GetGauge("hytap_retier_window_bytes");
    last_improvement_pct_milli =
        registry.GetGauge("hytap_retier_last_improvement_pct_milli");
    beta_milli = registry.GetGauge("hytap_retier_beta_milli");
  }
};

/// Appends pending steps migrating `table` toward `target`: evictions first
/// (free DRAM before loads consume it), then loads, ascending column id
/// within each group. Columns in `exclude` are never touched; steps larger
/// than one window's budget are appended pre-marked kSkippedOversized.
void AppendSteps(const Table& table, const std::vector<uint8_t>& target,
                 const std::vector<uint8_t>& exclude,
                 uint64_t bytes_per_window, std::vector<RetierStep>* steps,
                 uint64_t* skipped) {
  for (int pass = 0; pass < 2; ++pass) {
    const bool want_dram = pass == 1;  // pass 0 = evictions, pass 1 = loads
    for (ColumnId c = 0; c < table.column_count(); ++c) {
      const bool now = table.placement()[c];
      const bool want = c < target.size() && target[c] != 0;
      if (now == want || want != want_dram) continue;
      if (c < exclude.size() && exclude[c] != 0) continue;
      RetierStep step;
      step.column = c;
      step.to_dram = want;
      step.bytes = table.ColumnDramBytes(c);
      if (bytes_per_window > 0 && step.bytes > bytes_per_window) {
        step.outcome = RetierStepOutcome::kSkippedOversized;
        ++*skipped;
      }
      steps->push_back(step);
    }
  }
}

uint64_t PendingCount(const RetierPlan& plan) {
  uint64_t pending = 0;
  for (const RetierStep& step : plan.steps) {
    if (step.outcome == RetierStepOutcome::kPending) ++pending;
  }
  return pending;
}

}  // namespace

RetierDaemon::RetierDaemon(TieredTable* table, RetierOptions options)
    : table_(table), options_(std::move(options)), migrator_(0) {
  HYTAP_ASSERT(table_ != nullptr, "daemon needs a table");
  migrator_.set_calibration(&table_->calibrator(),
                            options_.use_calibrated_params);
  quarantined_.assign(table_->table().column_count(), 0);
}

std::vector<uint8_t> RetierDaemon::CurrentPlacement() const {
  const std::vector<bool>& placement = table_->table().placement();
  std::vector<uint8_t> current(placement.size());
  for (size_t i = 0; i < placement.size(); ++i) {
    current[i] = placement[i] ? 1 : 0;
  }
  return current;
}

uint64_t RetierDaemon::steps_remaining() const {
  return state_ == RetierState::kMigrating ? PendingCount(plan_) : 0;
}

bool RetierDaemon::ShouldEvaluate(uint64_t window, double drift,
                                  std::string* reason) {
  if (window <= last_eval_window_) {
    *reason = "idle";  // at most one evaluation per monitor window
    return false;
  }
  if (has_completed_plan_ &&
      window < last_plan_window_ + options_.dwell_windows) {
    *reason = "dwell";  // hysteresis: minimum dwell after a completed plan
    return false;
  }
  if (drift > 0.0 && drift >= options_.drift_threshold) {
    *reason = "drift";
    return true;
  }
  if (options_.periodic_windows > 0 &&
      window >= last_eval_window_ + options_.periodic_windows) {
    *reason = "periodic";
    return true;
  }
  *reason = "idle";
  return false;
}

bool RetierDaemon::Evaluate(uint64_t window, RetierTickReport* report) {
  RetierMetrics& metrics = RetierMetrics::Get();
  const WorkloadMonitor& monitor = table_->monitor();
  Workload workload =
      monitor.ToWorkload(table_->table(), options_.recent_windows);
  if (workload.queries.empty() || workload.column_count() == 0) {
    report->held = true;
    report->reason = "empty-workload";
    return false;
  }

  const ScanCostParams params = options_.use_calibrated_params
                                    ? table_->calibrator().Fitted()
                                    : options_.cost_params;
  std::vector<uint8_t> current = CurrentPlacement();
  CostModel model(workload, params);

  SelectionProblem problem;
  problem.workload = &workload;
  problem.params = params;
  problem.budget_bytes = options_.budget_bytes < 0.0
                             ? model.MemoryUsed(current)
                             : options_.budget_bytes;
  problem.current = current;
  problem.beta =
      options_.beta >= 0.0
          ? options_.beta
          : BetaFromMigrationWindow(migrator_.MoveNsPerByte(*table_),
                                    options_.amortization_windows);
  problem.pinned.assign(workload.column_count(), 0);
  for (ColumnId c : options_.pinned_columns) {
    if (c < problem.pinned.size()) problem.pinned[c] = 1;
  }
  // Quarantined columns are frozen: the DRAM-resident ones (abort-to-DRAM
  // landed them there) are pinned so selection prices their budget use; any
  // secondary-resident ones are simply never stepped again (AppendSteps
  // excludes them).
  for (size_t c = 0; c < quarantined_.size(); ++c) {
    if (quarantined_[c] != 0 && c < problem.pinned.size() &&
        current[c] != 0) {
      problem.pinned[c] = 1;
    }
  }

  const ReallocationResult result = SelectWithReallocation(problem);
  report->improvement_pct = result.improvement_pct;
  metrics.last_improvement_pct_milli->Set(
      int64_t(result.improvement_pct * 1000.0 + 0.5));
  metrics.beta_milli->Set(int64_t(problem.beta * 1000.0 + 0.5));

  if (result.planned_moves == 0) {
    report->held = true;
    report->reason = "converged";
    metrics.plans_held->Add();
    return false;
  }
  // An over-budget placement must be fixed regardless of scan-cost regret:
  // evicting down to budget usually *raises* F, so the deadband would
  // otherwise hold forever. Budget enforcement overrides the deadband.
  const bool over_budget =
      model.MemoryUsed(current) > problem.budget_bytes + 0.5;
  if (!over_budget && result.improvement_pct < options_.min_improvement_pct) {
    report->held = true;
    report->reason = "deadband";
    metrics.plans_held->Add();
    return false;
  }

  plan_ = RetierPlan{};
  plan_.id = next_plan_id_++;
  plan_.created_window = window;
  plan_.beta = problem.beta;
  plan_.improvement_pct = result.improvement_pct;
  plan_.current_cost = result.current_cost;
  plan_.target_objective = result.selection.objective;
  plan_.target = result.selection.in_dram;
  uint64_t skipped = 0;
  AppendSteps(table_->table(), plan_.target, quarantined_,
              options_.bytes_per_window, &plan_.steps, &skipped);
  plan_.skipped_steps += skipped;
  if (skipped > 0) metrics.steps_skipped->Add(skipped);
  if (PendingCount(plan_) == 0) {
    // Every wanted move is oversized or excluded: nothing can ever run.
    report->held = true;
    report->reason = "oversized";
    metrics.plans_held->Add();
    plan_ = RetierPlan{};
    return false;
  }
  state_ = RetierState::kMigrating;
  metrics.plans_started->Add();
  return true;
}

void RetierDaemon::RebuildQueue() {
  // Keep the audit trail of finished steps; re-derive the pending tail from
  // the table's *actual* placement (an abort-to-DRAM undoes every prior
  // eviction) toward the unchanged target, excluding quarantined columns
  // and columns already recorded as skipped-oversized.
  std::vector<RetierStep> steps;
  std::vector<uint8_t> exclude = quarantined_;
  exclude.resize(table_->table().column_count(), 0);
  for (const RetierStep& step : plan_.steps) {
    if (step.outcome == RetierStepOutcome::kPending) continue;
    steps.push_back(step);
    if (step.outcome == RetierStepOutcome::kSkippedOversized &&
        step.column < exclude.size()) {
      exclude[step.column] = 1;
    }
  }
  uint64_t skipped = 0;
  AppendSteps(table_->table(), plan_.target, exclude,
              options_.bytes_per_window, &steps, &skipped);
  plan_.skipped_steps += skipped;
  if (skipped > 0) RetierMetrics::Get().steps_skipped->Add(skipped);
  plan_.steps = std::move(steps);
}

void RetierDaemon::ExecuteSteps(uint64_t window, RetierTickReport* report) {
  RetierMetrics& metrics = RetierMetrics::Get();
  if (throttle_window_ != window) {
    throttle_window_ = window;
    window_bytes_ = 0;
  }
  size_t i = 0;
  while (i < plan_.steps.size()) {
    if (abort_.load(std::memory_order_relaxed)) break;
    RetierStep& step = plan_.steps[i];
    if (step.outcome != RetierStepOutcome::kPending) {
      ++i;
      continue;
    }
    if (options_.bytes_per_window > 0 &&
        window_bytes_ + step.bytes > options_.bytes_per_window) {
      break;  // this window's budget is spent; resume next window
    }
    StatusOr<MigrationReport> moved =
        migrator_.ApplyStep(table_, step.column, step.to_dram);
    step.window = window;
    const uint64_t sim_ns = table_->monitor().now_ns();
    if (moved.ok() && moved->applied) {
      step.outcome = RetierStepOutcome::kApplied;
      const uint64_t bytes =
          moved->moved_bytes > 0 ? moved->moved_bytes : step.bytes;
      window_bytes_ += bytes;
      plan_.moved_bytes += bytes;
      ++plan_.applied_steps;
      ++report->steps_applied;
      metrics.steps_applied->Add();
      metrics.moved_bytes->Add(bytes);
      FlightRecorder::Global().Record(FlightEventType::kRetierStep,
                                      step.to_dram ? 1 : 0, plan_.id, window,
                                      sim_ns, uint64_t(step.column), bytes);
      ++i;
    } else {
      // Verify-by-read-back failure: the table already recovered on its own
      // (a failed eviction leaves it fully DRAM-resident and consistent,
      // Table::SetPlacement). Quarantine the column — it is never stepped
      // again — and rebuild the queue so the rest of the plan survives.
      step.outcome = RetierStepOutcome::kQuarantined;
      if (step.column < quarantined_.size()) quarantined_[step.column] = 1;
      ++plan_.quarantined_steps;
      ++report->steps_quarantined;
      metrics.steps_quarantined->Add();
      FlightRecorder::Global().Record(FlightEventType::kRetierQuarantine, 0,
                                      plan_.id, window, sim_ns,
                                      uint64_t(step.column), step.bytes);
      FlightRecorder::Global().Anomaly(
          AnomalyKind::kStickyQuarantine, "retier_quarantine", plan_.id,
          window, sim_ns, uint64_t(step.column), step.bytes);
      window_bytes_ += step.bytes;  // the failed write spent the bandwidth
      RebuildQueue();
      i = 0;  // the queue changed; rescan (finished steps skip instantly)
    }
  }
  if (PendingCount(plan_) == 0) {
    FinishPlan(window, /*aborted=*/false, report);
  }
}

void RetierDaemon::FinishPlan(uint64_t window, bool aborted,
                              RetierTickReport* report) {
  RetierMetrics& metrics = RetierMetrics::Get();
  plan_.done = !aborted;
  plan_.aborted = aborted;
  state_ = RetierState::kIdle;
  FlightRecorder::Global().Record(
      FlightEventType::kRetierPlanDone, aborted ? 1 : 0, plan_.id, window,
      table_->monitor().now_ns(), plan_.applied_steps, plan_.moved_bytes);
  if (aborted) {
    metrics.plans_aborted->Add();
    report->plan_aborted = true;
  } else {
    metrics.plans_completed->Add();
    report->plan_completed = true;
    last_plan_window_ = window;
    has_completed_plan_ = true;
  }
  history_.push_back(std::move(plan_));
  plan_ = RetierPlan{};
}

RetierTickReport RetierDaemon::Tick() {
  RetierMetrics& metrics = RetierMetrics::Get();
  metrics.ticks->Add();
  RetierTickReport report;
  const WorkloadMonitor& monitor = table_->monitor();
  const uint64_t window = monitor.windows_started();
  report.window = window;
  report.drift = monitor.Drift();

  if (abort_.exchange(false, std::memory_order_relaxed) &&
      state_ == RetierState::kMigrating) {
    for (RetierStep& step : plan_.steps) {
      if (step.outcome == RetierStepOutcome::kPending) {
        step.outcome = RetierStepOutcome::kAborted;
        ++plan_.aborted_steps;
      }
    }
    FlightRecorder::Global().Record(FlightEventType::kRetierAbort, 0,
                                    plan_.id, window, monitor.now_ns(),
                                    plan_.aborted_steps, plan_.applied_steps);
    FlightRecorder::Global().Anomaly(AnomalyKind::kRetierAbort,
                                     "retier_abort", plan_.id, window,
                                     monitor.now_ns(), plan_.aborted_steps,
                                     plan_.applied_steps);
    FinishPlan(window, /*aborted=*/true, &report);
    report.reason = "aborted";
  } else if (state_ == RetierState::kMigrating) {
    ExecuteSteps(window, &report);
    report.reason = report.plan_completed ? "completed" : "migrating";
  } else if (monitor.queries_observed() == 0) {
    report.reason = "no-queries";
  } else {
    std::string reason;
    if (ShouldEvaluate(window, report.drift, &reason)) {
      metrics.evaluations->Add();
      report.evaluated = true;
      last_eval_window_ = window;
      if (Evaluate(window, &report)) {
        report.plan_started = true;
        report.reason = reason;
        // Trigger event: code 1 = drift-triggered, 2 = periodic.
        FlightRecorder::Global().Record(
            FlightEventType::kRetierTrigger, reason == "drift" ? 1 : 2,
            plan_.id, window, monitor.now_ns(), plan_.steps.size());
        // Start draining immediately within this window's budget.
        ExecuteSteps(window, &report);
      }
      // On hold, Evaluate() set reason to deadband/converged/oversized.
    } else {
      report.reason = reason;
    }
  }

  report.state = state_;
  report.window_bytes = throttle_window_ == window ? window_bytes_ : 0;
  metrics.state->Set(int64_t(state_));
  metrics.window_bytes->Set(int64_t(report.window_bytes));

  return report;
}

}  // namespace hytap
