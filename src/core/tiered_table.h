#ifndef HYTAP_CORE_TIERED_TABLE_H_
#define HYTAP_CORE_TIERED_TABLE_H_

#include <memory>
#include <mutex>
#include <string>

#include "query/executor.h"
#include "query/plan_cache.h"
#include "selection/calibration.h"
#include "storage/table.h"
#include "tiering/buffer_manager.h"
#include "tiering/secondary_store.h"
#include "txn/transaction_manager.h"
#include "workload/workload_monitor.h"

namespace hytap {

class QuerySession;
class SessionManager;
struct SessionOptions;
struct SubmitOptions;

/// Configuration for a tiered table instance.
struct TieredTableOptions {
  DeviceKind device = DeviceKind::kXpoint;
  /// Buffer-manager capacity as a share of the table's secondary-storage
  /// footprint once evicted (paper Fig. 7 uses 2 %). Frame count is derived
  /// lazily from the first placement; `min_frames` is the floor.
  double cache_share = 0.02;
  size_t min_frames = 64;
  double probe_threshold = 1e-4;
  uint64_t timing_seed = 42;
  /// Workload-monitor geometry (ring capacity / window width on the
  /// simulated clock).
  WorkloadMonitor::Options monitor;
};

/// Owning facade that wires a Table to its transaction manager, secondary
/// store, buffer manager, executor, and plan cache. The main entry point of
/// the library for applications (see examples/).
class TieredTable {
 public:
  TieredTable(std::string name, Schema schema, TieredTableOptions options);
  ~TieredTable();

  TieredTable(const TieredTable&) = delete;
  TieredTable& operator=(const TieredTable&) = delete;

  /// Bulk-loads initial data (before any transactions).
  void Load(const std::vector<Row>& rows) { table_->BulkLoad(rows); }

  Transaction Begin() { return txns_.Begin(); }
  void Commit(Transaction* txn) { txns_.Commit(txn); }
  void Abort(Transaction* txn) { txns_.Abort(txn); }

  /// While serving is enabled, writes run exclusively between queries
  /// (SessionManager::ExecuteWrite) so commit order equals submission order.
  Status Insert(const Transaction& txn, const Row& row);
  Status Delete(const Transaction& txn, RowId row);

  /// Executes a query, recording it in the plan cache.
  QueryResult Execute(const Transaction& txn, const Query& query,
                      uint32_t threads = 1);

  /// Executes without recording the query in the plan cache (benchmark
  /// warmups). The executor still records it in the workload monitor (and
  /// through it the cost calibrator) while the monitor is attached.
  QueryResult ExecuteUnrecorded(const Transaction& txn, const Query& query,
                                uint32_t threads = 1) const {
    return executor_->Execute(txn, query, threads);
  }

  /// Records one finished execution into the workload monitor and plan
  /// cache under one mutex. `obs_filled` = the executor produced an
  /// observation (monitor attached). The serving layer calls this in ticket
  /// order; the synchronous Execute() path uses it too, so both paths feed
  /// the monitor's window series identically.
  void RecordExecution(const Query& query, const QueryObservation& obs,
                       bool obs_filled);

  /// Turns on the high-concurrency serving front end (DESIGN.md §15):
  /// admission-controlled sessions executing concurrently against this
  /// table. Idempotent — returns the existing manager on repeat calls.
  /// While enabled, submit queries via Submit()/serving() rather than the
  /// synchronous Execute(), and writes route through the serving write gate
  /// automatically.
  SessionManager& EnableServing();
  SessionManager& EnableServing(const SessionOptions& options);
  /// Null until EnableServing().
  SessionManager* serving() { return serving_.get(); }

  /// Async serving API (requires EnableServing()): admission-controlled
  /// submit returning a session handle; Await blocks for its result.
  StatusOr<std::shared_ptr<QuerySession>> Submit(const Query& query,
                                                 const SubmitOptions& opts);
  QueryResult Await(const std::shared_ptr<QuerySession>& session);

  /// Structural rewrite: while serving, drains the session queue first and
  /// then runs exclusively (queued queries' snapshots do not shield them
  /// from a merge's main/delta restructuring, unlike Insert/Delete).
  Status MergeDelta();

  /// Applies a placement (true = DRAM) and resizes the page cache to
  /// `cache_share` of the evicted footprint. Returns migrated bytes.
  StatusOr<uint64_t> ApplyPlacement(const std::vector<bool>& in_dram);

  Table& table() { return *table_; }
  const Table& table() const { return *table_; }
  PlanCache& plan_cache() { return plan_cache_; }
  const PlanCache& plan_cache() const { return plan_cache_; }
  /// Windowed workload time series fed by the executor (DESIGN.md §12).
  WorkloadMonitor& monitor() { return *monitor_; }
  const WorkloadMonitor& monitor() const { return *monitor_; }
  /// Online scan-cost calibration fed by the monitor.
  CostCalibrator& calibrator() { return *calibrator_; }
  const CostCalibrator& calibrator() const { return *calibrator_; }
  SecondaryStore& store() { return *store_; }
  const SecondaryStore& store() const { return *store_; }
  BufferManager& buffers() { return *buffers_; }
  const BufferManager& buffers() const { return *buffers_; }
  TransactionManager& txns() { return txns_; }
  QueryExecutor& executor() { return *executor_; }
  const QueryExecutor& executor() const { return *executor_; }
  const TieredTableOptions& options() const { return options_; }

 private:
  StatusOr<uint64_t> ApplyPlacementLocked(const std::vector<bool>& in_dram);

  TieredTableOptions options_;
  TransactionManager txns_;
  std::unique_ptr<SecondaryStore> store_;
  std::unique_ptr<BufferManager> buffers_;
  std::unique_ptr<Table> table_;
  std::unique_ptr<QueryExecutor> executor_;
  std::unique_ptr<WorkloadMonitor> monitor_;
  std::unique_ptr<CostCalibrator> calibrator_;
  PlanCache plan_cache_;
  /// Serializes monitor + plan-cache recording (RecordExecution).
  std::mutex record_mutex_;
  /// Declared last: destroyed first, so serving workers drain before the
  /// engine they execute against goes away.
  std::unique_ptr<SessionManager> serving_;
};

}  // namespace hytap

#endif  // HYTAP_CORE_TIERED_TABLE_H_
