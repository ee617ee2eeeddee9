#include "core/migrator.h"

#include "common/assert.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"

namespace hytap {

namespace {

/// Registry handles resolved once; Add() is gated on MetricsEnabled().
/// The predicted/observed pairs let dashboards track the cost-model error of
/// the advisor's migration estimates.
struct MigratorMetrics {
  Counter* started;
  Counter* applied;
  Counter* rejected;  // estimate exceeded the maintenance window
  Counter* aborted;   // physical move failed (verify-after-write)
  Counter* predicted_moved_bytes;
  Counter* observed_moved_bytes;
  Counter* predicted_duration_ns;
  Counter* observed_duration_ns;

  static MigratorMetrics& Get() {
    static MigratorMetrics metrics;
    return metrics;
  }

 private:
  MigratorMetrics() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    started = registry.GetCounter("hytap_migrations_started_total");
    applied = registry.GetCounter("hytap_migrations_applied_total");
    rejected = registry.GetCounter("hytap_migrations_rejected_total");
    aborted = registry.GetCounter("hytap_migrations_aborted_total");
    predicted_moved_bytes =
        registry.GetCounter("hytap_migration_predicted_moved_bytes_total");
    observed_moved_bytes =
        registry.GetCounter("hytap_migration_observed_moved_bytes_total");
    predicted_duration_ns =
        registry.GetCounter("hytap_migration_predicted_duration_ns_total");
    observed_duration_ns =
        registry.GetCounter("hytap_migration_observed_duration_ns_total");
  }
};

}  // namespace

double Migrator::MoveNsPerByte(const TieredTable& table) const {
  if (use_calibration_ && calibrator_ != nullptr &&
      calibrator_->secondary().samples > 0) {
    return calibrator_->Fitted().c_ss;
  }
  // Device-model fallback: amortize the sequential-write cost over a large
  // batch so per-call fixed costs do not inflate the per-byte rate.
  constexpr uint64_t kBatchPages = 256;
  return double(table.store().device().SequentialWriteNs(kBatchPages,
                                                         /*threads=*/1)) /
         (double(kBatchPages) * double(kPageSize));
}

MigrationReport Migrator::Estimate(const TieredTable& table,
                                   const std::vector<bool>& in_dram) const {
  MigrationReport report;
  const Table& t = table.table();
  HYTAP_ASSERT(in_dram.size() == t.column_count(),
               "placement arity mismatch");
  for (ColumnId c = 0; c < t.column_count(); ++c) {
    const bool was_dram = t.placement()[c];
    if (was_dram == in_dram[c]) continue;
    report.moved_bytes += t.ColumnDramBytes(c);
    if (was_dram) {
      ++report.evicted_columns;
    } else {
      ++report.loaded_columns;
    }
  }
  if (use_calibration_ && calibrator_ != nullptr &&
      calibrator_->secondary().samples > 0) {
    report.duration_ns =
        uint64_t(double(report.moved_bytes) * MoveNsPerByte(table) + 0.5);
  } else {
    const uint64_t pages = (report.moved_bytes + kPageSize - 1) / kPageSize;
    report.duration_ns =
        table.store().device().SequentialWriteNs(pages, /*threads=*/1);
  }
  return report;
}

StatusOr<MigrationReport> Migrator::Apply(
    TieredTable* table, const std::vector<bool>& in_dram) const {
  MigratorMetrics& metrics = MigratorMetrics::Get();
  metrics.started->Add();
  MigrationReport report = Estimate(*table, in_dram);
  metrics.predicted_moved_bytes->Add(report.moved_bytes);
  metrics.predicted_duration_ns->Add(report.duration_ns);
  if (max_window_ns_ != 0 && report.duration_ns > max_window_ns_) {
    metrics.rejected->Add();
    return report;  // too expensive for the maintenance window
  }
  StatusOr<uint64_t> moved = table->ApplyPlacement(in_dram);
  if (!moved.ok()) {
    metrics.aborted->Add();
    return moved.status();
  }
  report.moved_bytes = *moved;
  report.applied = true;
  metrics.applied->Add();
  metrics.observed_moved_bytes->Add(report.moved_bytes);
  const uint64_t observed_pages =
      (report.moved_bytes + kPageSize - 1) / kPageSize;
  metrics.observed_duration_ns->Add(table->store().device().SequentialWriteNs(
      observed_pages, /*threads=*/1));
  return report;
}

StatusOr<MigrationReport> Migrator::ApplyStep(TieredTable* table,
                                              ColumnId column,
                                              bool to_dram) const {
  const Table& t = table->table();
  HYTAP_ASSERT(column < t.column_count(), "step column out of range");
  std::vector<bool> placement = t.placement();
  placement[column] = to_dram;
  // Per-column migration boundaries on the flight timeline. This path is
  // serial (one daemon tick), so the monitor stamps are stable.
  const uint64_t window = table->monitor().windows_started();
  const uint64_t sim_ns = table->monitor().now_ns();
  table->store().SetFlightStamp(window, sim_ns);
  FlightRecorder::Global().Record(FlightEventType::kMigrationBegin,
                                  to_dram ? 1 : 0, 0, window, sim_ns,
                                  uint64_t(column));
  StatusOr<MigrationReport> report = Apply(table, placement);
  const bool failed = !report.ok() || !report->applied;
  const uint64_t moved = report.ok() ? report->moved_bytes : 0;
  FlightRecorder::Global().Record(FlightEventType::kMigrationEnd,
                                  failed ? 1 : 0, 0, window, sim_ns,
                                  uint64_t(column), moved);
  return report;
}

}  // namespace hytap
