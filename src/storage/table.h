#ifndef HYTAP_STORAGE_TABLE_H_
#define HYTAP_STORAGE_TABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/statistics.h"
#include "storage/column.h"
#include "storage/index.h"
#include "storage/sscg.h"
#include "storage/value_column.h"
#include "tiering/buffer_manager.h"
#include "tiering/secondary_store.h"
#include "txn/transaction_manager.h"

namespace hytap {

/// Where a column currently lives.
enum class ColumnLocation {
  kDram,       // Memory-Resident Column (dictionary-encoded)
  kSecondary,  // member of the Secondary Storage Column Group
};

/// A tiered HTAP table (paper §II).
///
/// Structure:
///  - a read-optimized *main* partition: per column either a DRAM-resident
///    dictionary-encoded MRC or membership in a single row-oriented SSCG on
///    secondary storage;
///  - a write-optimized, DRAM-resident *delta* partition (insert-only)
///    absorbing all modifications, merged into main on demand;
///  - MVCC begin/end stamps for visibility.
///
/// Rows are addressed globally: [0, main_row_count) are main rows,
/// [main_row_count, main_row_count + delta size) are delta rows.
class Table {
 public:
  /// `store`/`buffers` may be null for tables that are never tiered.
  Table(std::string name, Schema schema, TransactionManager* txns,
        SecondaryStore* store = nullptr, BufferManager* buffers = nullptr);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t column_count() const { return schema_.size(); }
  size_t main_row_count() const { return main_row_count_; }
  size_t delta_row_count() const { return delta_begin_tids_.size(); }
  size_t row_count() const { return main_row_count_ + delta_row_count(); }

  /// Loads `rows` directly into the main partition as committed data
  /// (begin stamp 0). All columns start DRAM-resident. Callable once,
  /// before any inserts. Every row must match the schema's arity and types,
  /// and every string must fit its column (FitsFixedWidth).
  void BulkLoad(const std::vector<Row>& rows);

  /// Appends a row to the delta partition, stamped with `txn`. Fails with
  /// kInvalidArgument on an arity or type mismatch, or on a string that
  /// does not fit its column's `string_width` (FitsFixedWidth): the SSCG
  /// stores strings at that width, so such a value would change when its
  /// column is evicted.
  Status Insert(const Transaction& txn, const Row& row);

  /// Invalidates `row` (global id) for transactions after `txn` commits.
  Status Delete(const Transaction& txn, RowId row);

  /// MVCC visibility of a global row id for `txn`.
  bool IsVisible(RowId row, const Transaction& txn) const;

  /// Materializes one cell (any location). `io` accrues simulated cost.
  /// SSCG-placed cells can fail with kUnavailable / kDataLoss.
  StatusOr<Value> GetValue(ColumnId column, RowId row, uint32_t queue_depth,
                           IoStats* io) const;

  /// Materializes the full tuple `row`. For main rows the SSCG part costs a
  /// single page read (paper §II-A); MRC attributes cost two DRAM accesses
  /// each (value vector + dictionary). Fails with the SSCG page error if the
  /// group's page cannot be read.
  StatusOr<Row> ReconstructRow(RowId row, uint32_t queue_depth,
                               IoStats* io) const;

  /// Merges all committed, surviving delta rows into the main partition and
  /// clears the delta. Requires no in-flight transactions on this table.
  /// Works column by column on the thread pool: a DRAM column merges its
  /// sorted dictionary with the delta's values; an SSCG column is decoded
  /// and the SSCG rewritten. Preserves the current placement. Returns
  /// kDataLoss (table unchanged) if the current SSCG pages fail their
  /// checksums, or if the rewritten SSCG fails read-back verification (then
  /// the merge completes with all columns left DRAM-resident).
  Status MergeDelta();

  /// Moves columns between DRAM and the SSCG: `in_dram[i]` selects the new
  /// location of column i; accounts the migration volume in
  /// `migrated_bytes` if non-null. A step changes neither values nor row
  /// ids, so unmoved MRCs, the indexes and the statistics are kept as they
  /// are; each loaded column gets one MRC decoded from its SSCG slot, and
  /// the SSCG is rewritten once (it is row-oriented, so a step's cost
  /// follows the group's size). Evictions are verified by read-back
  /// checksum: if any freshly written SSCG page fails verification, the
  /// eviction is aborted, the table is left fully DRAM-resident and
  /// consistent, and kDataLoss is returned.
  Status SetPlacement(const std::vector<bool>& in_dram,
                      uint64_t* migrated_bytes = nullptr);

  ColumnLocation location(ColumnId column) const {
    return placement_[column] ? ColumnLocation::kDram
                              : ColumnLocation::kSecondary;
  }
  const std::vector<bool>& placement() const { return placement_; }

  /// The MRC for a DRAM-resident column (null if SSCG-placed).
  const AbstractColumn* mrc(ColumnId column) const {
    return mrc_columns_[column].get();
  }
  /// The delta column (always present).
  const AbstractColumn* delta(ColumnId column) const {
    return delta_columns_[column].get();
  }
  const Sscg* sscg() const { return sscg_.get(); }

  /// DRAM bytes of column i's main-partition representation (the a_i of the
  /// selection model when the column is an MRC). SSCG-placed columns report
  /// their would-be MRC size, kept from the last DRAM residence or merge.
  size_t ColumnDramBytes(ColumnId column) const {
    return column_dram_bytes_[column];
  }

  /// Total DRAM consumed by main-partition MRCs.
  size_t MainDramBytes() const;

  /// Distinct-count-based selectivity estimate 1/n (paper §II-B footnote):
  /// n from the column's MRC, or from its delta when the column is
  /// SSCG-placed or the main partition is empty.
  double SelectivityEstimate(ColumnId column) const;

  /// Creates a DRAM-resident index over main-partition rows (paper §IV:
  /// indices are never evicted). Single column id -> B+-tree index
  /// (equality + range); multiple ids -> composite key (equality only).
  /// Indexes are rebuilt automatically on merge; placement changes keep
  /// them (row ids do not move).
  Status CreateIndex(const std::vector<ColumnId>& columns);

  /// The single-column index on `column`, or null.
  const MainIndex* FindIndex(ColumnId column) const;

  /// A composite index whose key columns are all contained in `columns`
  /// (with every key part present), or null.
  const MainIndex* FindCompositeIndex(
      const std::vector<ColumnId>& columns) const;

  const std::vector<std::unique_ptr<MainIndex>>& indexes() const {
    return indexes_;
  }

  /// DRAM consumed by indexes (reported separately from column budgets).
  size_t IndexDramBytes() const;

  /// Builds per-column histograms + distinct counts over the current main
  /// partition (paper §III-A: selectivities estimated "using distinct counts
  /// and histograms when available"). Refreshed automatically on merge once
  /// built; placement changes keep them (values do not change).
  void BuildStatistics(size_t bucket_count = 32);

  /// Current statistics, or null if BuildStatistics was never called.
  const TableStatistics* statistics() const { return statistics_.get(); }

  SecondaryStore* store() const { return store_; }
  BufferManager* buffers() const { return buffers_; }
  TransactionManager* txns() const { return txns_; }

 private:
  /// Every main-partition value of an SSCG-placed column, decoded from the
  /// group's raw pages (no timing).
  ColumnValues SlotValues(ColumnId column) const;

  /// Every main-partition value of a column, from its current location.
  ColumnValues MainValues(ColumnId column) const;

  /// Builds the index over `columns` from the current main partition.
  std::unique_ptr<MainIndex> BuildIndex(
      const std::vector<ColumnId>& columns) const;

  /// Writes a new SSCG of `members` (ascending; none = no group) from
  /// `sources`, verifies every page by read-back checksum, and installs it
  /// with `members` SSCG-placed and every other column DRAM-resident; the
  /// members' MRCs are dropped and the replaced group's pages released.
  /// On a verify failure the eviction is aborted instead: every column
  /// without an MRC gets one from `values_of`, both groups' pages are
  /// released, the table is left fully DRAM-resident, and kDataLoss is
  /// returned.
  Status ReplaceSscg(const std::vector<ColumnId>& members,
                     const std::vector<Sscg::SlotSource>& sources,
                     const std::function<ColumnValues(ColumnId)>& values_of);

  /// Recomputes the checksum of every current SSCG page (kDataLoss on the
  /// first mismatch). Guards raw gathers (merge, placement change) against
  /// silently propagating corrupted bytes.
  Status VerifySscgPages() const;

  std::string name_;
  Schema schema_;
  TransactionManager* txns_;
  SecondaryStore* store_;
  BufferManager* buffers_;

  // --- main partition ---
  size_t main_row_count_ = 0;
  std::vector<std::unique_ptr<AbstractColumn>> mrc_columns_;
  std::unique_ptr<Sscg> sscg_;
  std::vector<bool> placement_;  // true = DRAM
  std::vector<size_t> column_dram_bytes_;
  std::vector<TransactionId> main_end_tids_;  // invalidation stamps
  std::vector<std::vector<ColumnId>> index_definitions_;
  std::vector<std::unique_ptr<MainIndex>> indexes_;
  std::unique_ptr<TableStatistics> statistics_;
  size_t statistics_buckets_ = 32;

  // --- delta partition ---
  std::vector<std::unique_ptr<AbstractColumn>> delta_columns_;
  std::vector<TransactionId> delta_begin_tids_;
  std::vector<TransactionId> delta_end_tids_;

  bool bulk_loaded_ = false;
};

}  // namespace hytap

#endif  // HYTAP_STORAGE_TABLE_H_
