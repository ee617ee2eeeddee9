#ifndef HYTAP_CORE_RETIER_DAEMON_H_
#define HYTAP_CORE_RETIER_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/migrator.h"
#include "core/tiered_table.h"
#include "selection/reallocation.h"

namespace hytap {

/// Re-tiering daemon configuration (DESIGN.md §14).
struct RetierOptions {
  /// TV-distance drift (WorkloadMonitor::Drift) that triggers a
  /// re-evaluation of the placement.
  double drift_threshold = 0.25;
  /// Regret deadband: plans whose reallocation-aware improvement
  /// (F(y) - F(x*) - beta * moved bytes, as % of F(y)) falls below this are
  /// held — the hysteresis that keeps oscillating workloads from thrashing.
  double min_improvement_pct = 2.0;
  /// Min monitor windows between a completed plan and the next evaluation.
  uint64_t dwell_windows = 2;
  /// Evaluate every `periodic_windows` windows even without drift
  /// (0 = drift-triggered only).
  uint64_t periodic_windows = 0;
  /// Per-monitor-window migration budget in bytes (0 = unthrottled). Steps
  /// larger than one window's budget can never run and are skipped.
  uint64_t bytes_per_window = 8ull << 20;
  /// DRAM budget for the selection; < 0 = what the current placement uses
  /// (budget parity, like the placement doctor).
  double budget_bytes = -1.0;
  /// Newest monitor windows aggregated into the selection workload
  /// (0 = all live windows). Spanning both sides of a phase flip is what
  /// makes the target stable under oscillation.
  size_t recent_windows = 2;
  /// Per-byte move weight beta; < 0 = derive from the measured move cost
  /// amortized over `amortization_windows` (BetaFromMigrationWindow).
  double beta = -1.0;
  uint64_t amortization_windows = 8;
  /// Price selection and move estimates with the calibrator's fitted
  /// c_mm/c_ss instead of `cost_params`.
  bool use_calibrated_params = false;
  ScanCostParams cost_params;
  /// Columns the DBA pins in DRAM; the daemon adds quarantined columns.
  std::vector<ColumnId> pinned_columns;
};

enum class RetierState : uint8_t { kIdle = 0, kMigrating = 1 };

/// Lifecycle of one per-column migration step in a plan's queue.
enum class RetierStepOutcome : uint8_t {
  kPending = 0,
  kApplied = 1,
  /// Verify-by-read-back failed: the table aborted the column to DRAM and
  /// the daemon quarantined it (never retried; pinned in DRAM in every
  /// later selection). The rest of the plan continues.
  kQuarantined = 2,
  /// Larger than one window's throttle budget; can never run.
  kSkippedOversized = 3,
  /// Plan cancelled via RequestAbort() before this step ran.
  kAborted = 4,
};

struct RetierStep {
  ColumnId column = 0;
  bool to_dram = false;
  /// Planned bytes (the column's DRAM footprint).
  uint64_t bytes = 0;
  RetierStepOutcome outcome = RetierStepOutcome::kPending;
  /// Monitor window (windows_started) in which the step executed.
  uint64_t window = 0;
};

/// One reallocation plan: the target the selection chose and the step queue
/// that migrates toward it, one throttled column at a time.
struct RetierPlan {
  uint64_t id = 0;
  uint64_t created_window = 0;
  double beta = 0.0;
  double improvement_pct = 0.0;
  double current_cost = 0.0;       // F(y) at planning time
  double target_objective = 0.0;   // F(x*) + beta * moved bytes
  std::vector<uint8_t> target;     // x*, full column arity
  std::vector<RetierStep> steps;   // evictions first, then loads
  uint64_t applied_steps = 0;
  uint64_t quarantined_steps = 0;
  uint64_t skipped_steps = 0;
  uint64_t aborted_steps = 0;
  uint64_t moved_bytes = 0;
  bool done = false;
  bool aborted = false;
};

/// What one Tick() did — the daemon's externally visible heartbeat.
struct RetierTickReport {
  RetierState state = RetierState::kIdle;  // state after the tick
  uint64_t window = 0;                     // monitor windows_started
  double drift = 0.0;
  bool evaluated = false;     // ran selection this tick
  bool plan_started = false;  // a new plan entered the queue
  bool held = false;          // evaluation below the deadband / converged
  bool plan_completed = false;
  bool plan_aborted = false;
  double improvement_pct = 0.0;  // of the evaluation, when one ran
  uint64_t steps_applied = 0;
  uint64_t steps_quarantined = 0;
  uint64_t window_bytes = 0;  // bytes migrated in this window so far
  /// Why the tick did what it did ("idle", "drift", "periodic", "dwell",
  /// "deadband", "converged", "migrating", "no-queries", "aborted").
  std::string reason;
};

/// Autonomous re-tiering controller (DESIGN.md §14): watches the workload
/// monitor's drift, re-runs selection with the paper's reallocation-aware
/// objective (eqs (6)-(7), §III-D), and drains the resulting plan as a
/// queue of per-column migration steps that are throttled to a
/// bytes-per-window budget, abortable via a stop token, and hardened
/// against fault injection — a verify-by-read-back failure quarantines the
/// failing column (the table already aborted it to DRAM) and the queue is
/// rebuilt from the table's actual placement so one bad device page never
/// poisons the rest of the plan.
///
/// The daemon is driven by explicit Tick() calls on the engine's serial
/// control path and keys every decision to the monitor's window counter on
/// the *simulated* clock — never to wall time or raw simulated ns (which
/// vary with worker count) — so results, placements, and fault schedules
/// stay bit-identical at 1/2/4 threads with the daemon on.
class RetierDaemon {
 public:
  explicit RetierDaemon(TieredTable* table, RetierOptions options = {});

  RetierDaemon(const RetierDaemon&) = delete;
  RetierDaemon& operator=(const RetierDaemon&) = delete;

  /// One control-path heartbeat: handles a pending abort, drains the active
  /// plan within this window's byte budget, or (when idle) decides whether
  /// to re-evaluate the placement.
  RetierTickReport Tick();

  /// Stop token: requests cancellation of the active plan. Safe from any
  /// thread; the next Tick() marks the remaining steps kAborted and returns
  /// the daemon to kIdle. A no-op when no plan is active.
  void RequestAbort() { abort_.store(true, std::memory_order_relaxed); }

  RetierState state() const { return state_; }
  /// The in-flight plan (only while state() == kMigrating).
  const RetierPlan* active_plan() const {
    return state_ == RetierState::kMigrating ? &plan_ : nullptr;
  }
  /// Completed/aborted plans, oldest first.
  const std::vector<RetierPlan>& history() const { return history_; }
  bool IsQuarantined(ColumnId column) const {
    return column < quarantined_.size() && quarantined_[column] != 0;
  }
  uint64_t steps_remaining() const;
  const RetierOptions& options() const { return options_; }

 private:
  bool ShouldEvaluate(uint64_t window, double drift, std::string* reason);
  /// Runs reallocation-aware selection; returns true when a plan started.
  bool Evaluate(uint64_t window, RetierTickReport* report);
  void ExecuteSteps(uint64_t window, RetierTickReport* report);
  /// After a quarantine, re-derives the pending tail from the table's
  /// actual placement vs the plan target minus quarantined columns.
  void RebuildQueue();
  void FinishPlan(uint64_t window, bool aborted, RetierTickReport* report);
  std::vector<uint8_t> CurrentPlacement() const;

  TieredTable* table_;
  RetierOptions options_;
  Migrator migrator_;

  std::atomic<bool> abort_{false};
  RetierState state_ = RetierState::kIdle;
  uint64_t last_eval_window_ = 0;
  uint64_t last_plan_window_ = 0;
  bool has_completed_plan_ = false;
  /// Throttle accounting: bytes migrated in window `throttle_window_`.
  uint64_t throttle_window_ = 0;
  uint64_t window_bytes_ = 0;
  std::vector<uint8_t> quarantined_;  // sticky, per column
  RetierPlan plan_;
  std::vector<RetierPlan> history_;
  uint64_t next_plan_id_ = 1;
};

}  // namespace hytap

#endif  // HYTAP_CORE_RETIER_DAEMON_H_
