#include "core/tiered_table.h"

#include <algorithm>

#include "common/flight_recorder.h"
#include "serving/session_manager.h"

namespace hytap {

TieredTable::TieredTable(std::string name, Schema schema,
                         TieredTableOptions options)
    : options_(options) {
  store_ = std::make_unique<SecondaryStore>(options.device,
                                            options.timing_seed);
  buffers_ = std::make_unique<BufferManager>(store_.get(),
                                             options.min_frames);
  table_ = std::make_unique<Table>(std::move(name), std::move(schema), &txns_,
                                   store_.get(), buffers_.get());
  executor_ =
      std::make_unique<QueryExecutor>(table_.get(), options.probe_threshold);
  monitor_ = std::make_unique<WorkloadMonitor>(table_->column_count(),
                                               options.monitor);
  calibrator_ = std::make_unique<CostCalibrator>();
  monitor_->set_sink(calibrator_.get());
  executor_->set_monitor(monitor_.get());
}

TieredTable::~TieredTable() = default;

QueryResult TieredTable::Execute(const Transaction& txn, const Query& query,
                                 uint32_t threads) {
  // Execute with the observation handed back instead of recorded inside the
  // executor, then record observation + plan-cache entry atomically — the
  // same path the serving layer replays in ticket order, so both feed the
  // monitor identically.
  QueryObservation obs;
  bool obs_filled = false;
  ExecOptions opts;
  opts.threads = threads;
  opts.observation = &obs;
  opts.observation_filled = &obs_filled;
  QueryResult result = executor_->Execute(txn, query, opts);
  RecordExecution(query, obs, obs_filled);
  return result;
}

void TieredTable::RecordExecution(const Query& query,
                                  const QueryObservation& obs,
                                  bool obs_filled) {
  std::lock_guard<std::mutex> lock(record_mutex_);
  if (obs_filled) {
    monitor_->Record(obs);
    plan_cache_.RecordObserved(query, obs);
  } else {
    plan_cache_.Record(query);
  }
}

Status TieredTable::Insert(const Transaction& txn, const Row& row) {
  if (serving_ != nullptr) {
    return serving_->ExecuteWrite([&] { return table_->Insert(txn, row); });
  }
  return table_->Insert(txn, row);
}

Status TieredTable::Delete(const Transaction& txn, RowId row) {
  if (serving_ != nullptr) {
    return serving_->ExecuteWrite([&] { return table_->Delete(txn, row); });
  }
  return table_->Delete(txn, row);
}

Status TieredTable::MergeDelta() {
  const auto merge = [&] {
    const uint64_t delta_rows = table_->delta_row_count();
    const uint64_t window = monitor_->windows_started();
    const uint64_t sim_ns = monitor_->now_ns();
    FlightRecorder::Global().Record(FlightEventType::kMergeBegin, 0, 0,
                                    window, sim_ns, delta_rows);
    Status status = table_->MergeDelta();
    FlightRecorder::Global().Record(FlightEventType::kMergeEnd,
                                    uint16_t(status.code()), 0, window,
                                    sim_ns, delta_rows);
    return status;
  };
  if (serving_ != nullptr) {
    // Queued queries' delta bounds / snapshots do not shield them from the
    // merge restructuring main storage under them: quiesce first.
    serving_->Drain();
    return serving_->ExecuteWrite(merge);
  }
  return merge();
}

SessionManager& TieredTable::EnableServing() {
  return EnableServing(SessionOptions{});
}

SessionManager& TieredTable::EnableServing(const SessionOptions& options) {
  if (serving_ == nullptr) {
    serving_ = std::make_unique<SessionManager>(this, options);
  }
  return *serving_;
}

StatusOr<std::shared_ptr<QuerySession>> TieredTable::Submit(
    const Query& query, const SubmitOptions& opts) {
  HYTAP_ASSERT(serving_ != nullptr, "Submit() requires EnableServing()");
  return serving_->Submit(query, opts);
}

QueryResult TieredTable::Await(const std::shared_ptr<QuerySession>& session) {
  return session->Await();
}

StatusOr<uint64_t> TieredTable::ApplyPlacement(
    const std::vector<bool>& in_dram) {
  if (serving_ != nullptr) {
    serving_->Drain();
    StatusOr<uint64_t> migrated = uint64_t(0);
    Status status = serving_->ExecuteWrite([&] {
      migrated = ApplyPlacementLocked(in_dram);
      return migrated.ok() ? Status::Ok() : migrated.status();
    });
    if (!status.ok()) return status;
    return migrated;
  }
  return ApplyPlacementLocked(in_dram);
}

StatusOr<uint64_t> TieredTable::ApplyPlacementLocked(
    const std::vector<bool>& in_dram) {
  uint64_t migrated_bytes = 0;
  Status status = table_->SetPlacement(in_dram, &migrated_bytes);
  if (!status.ok()) return status;
  // Size the page cache relative to the evicted footprint (Fig. 7: 2 %).
  const Sscg* sscg = table_->sscg();
  const size_t evicted_pages = sscg == nullptr ? 0 : sscg->page_count();
  const size_t frames = std::max(
      options_.min_frames,
      static_cast<size_t>(double(evicted_pages) * options_.cache_share));
  buffers_->Resize(frames);
  return migrated_bytes;
}

}  // namespace hytap
