#include "storage/table.h"

#include <algorithm>

#include "common/assert.h"
#include "common/thread_pool.h"
#include "storage/dictionary_column.h"

namespace hytap {

namespace {

/// Runs fn(c) for every column c on the global pool. Column jobs are
/// independent: each reads shared, unchanging inputs and writes only its
/// own result slots, so the outcome is the same at any worker count.
void ForEachColumn(size_t columns, const std::function<void(ColumnId)>& fn) {
  ThreadPool& pool = ThreadPool::Global();
  pool.ParallelFor(0, columns, 1, uint32_t(pool.helper_count() + 1),
                   [&](size_t, size_t begin, size_t end) {
                     for (size_t c = begin; c < end; ++c) fn(ColumnId(c));
                   });
}

/// The values of delta rows `rows` of a delta column built by
/// MakeValueColumn for `type`.
ColumnValues DeltaValues(const AbstractColumn& delta, DataType type,
                         const std::vector<size_t>& rows) {
  ColumnValues values = MakeColumnValues(type);
  std::visit(
      [&](auto& typed) {
        using T = typename std::decay_t<decltype(typed)>::value_type;
        const auto& column = static_cast<const ValueColumn<T>&>(delta);
        typed.reserve(rows.size());
        for (size_t d : rows) typed.push_back(column.Get(d));
      },
      values);
  return values;
}

}  // namespace

Table::Table(std::string name, Schema schema, TransactionManager* txns,
             SecondaryStore* store, BufferManager* buffers)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      txns_(txns),
      store_(store),
      buffers_(buffers) {
  HYTAP_ASSERT(!schema_.empty(), "table needs at least one column");
  HYTAP_ASSERT(txns_ != nullptr, "table needs a transaction manager");
  // Every DRAM-resident column has an MRC, so the main partition starts as
  // empty ones (what BulkLoad or a merge over no rows builds).
  placement_.assign(schema_.size(), true);
  for (const auto& def : schema_) {
    mrc_columns_.push_back(BuildDictionaryColumn(MakeColumnValues(def.type)));
    column_dram_bytes_.push_back(mrc_columns_.back()->MemoryUsage());
    delta_columns_.push_back(MakeValueColumn(def));
  }
}

void Table::BulkLoad(const std::vector<Row>& rows) {
  HYTAP_ASSERT(!bulk_loaded_, "BulkLoad may only run once");
  HYTAP_ASSERT(delta_row_count() == 0, "BulkLoad must precede inserts");
  HYTAP_ASSERT(sscg_ == nullptr, "BulkLoad must precede placement changes");
  bulk_loaded_ = true;
  for (const Row& row : rows) {
    HYTAP_ASSERT(row.size() == schema_.size(), "row arity mismatch");
    for (size_t c = 0; c < schema_.size(); ++c) {
      HYTAP_ASSERT(row[c].type() == schema_[c].type, "value type mismatch");
      HYTAP_ASSERT(schema_[c].type != DataType::kString ||
                       FitsFixedWidth(row[c].AsString(),
                                      schema_[c].string_width),
                   "string does not fit its column's string_width");
    }
  }
  main_row_count_ = rows.size();
  // All columns start DRAM-resident: one typed gather and one MRC each.
  ForEachColumn(schema_.size(), [&](ColumnId c) {
    ColumnValues values = MakeColumnValues(schema_[c].type);
    std::visit(
        [&](auto& typed) {
          using T = typename std::decay_t<decltype(typed)>::value_type;
          typed.reserve(rows.size());
          for (const Row& row : rows) typed.push_back(row[c].As<T>());
        },
        values);
    mrc_columns_[c] = BuildDictionaryColumn(values);
    column_dram_bytes_[c] = mrc_columns_[c]->MemoryUsage();
  });
  main_end_tids_.assign(main_row_count_, kMaxTransactionId);
}

Status Table::Insert(const Transaction& txn, const Row& row) {
  if (row.size() != schema_.size()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  for (size_t c = 0; c < schema_.size(); ++c) {
    if (row[c].type() != schema_[c].type) {
      return Status::InvalidArgument("value type mismatch in column " +
                                     schema_[c].name);
    }
    if (schema_[c].type == DataType::kString &&
        !FitsFixedWidth(row[c].AsString(), schema_[c].string_width)) {
      return Status::InvalidArgument(
          "string does not fit the string_width of column " +
          schema_[c].name);
    }
  }
  for (size_t c = 0; c < schema_.size(); ++c) {
    AppendValue(delta_columns_[c].get(), row[c]);
  }
  delta_begin_tids_.push_back(txn.tid);
  delta_end_tids_.push_back(kMaxTransactionId);
  return Status::Ok();
}

Status Table::Delete(const Transaction& txn, RowId row) {
  if (row >= row_count()) {
    return Status::OutOfRange("row id out of range");
  }
  if (row < main_row_count_) {
    main_end_tids_[row] = txn.tid;
  } else {
    delta_end_tids_[row - main_row_count_] = txn.tid;
  }
  return Status::Ok();
}

bool Table::IsVisible(RowId row, const Transaction& txn) const {
  HYTAP_ASSERT(row < row_count(), "row id out of range");
  if (row < main_row_count_) {
    return !txns_->IsDeleted(main_end_tids_[row], txn);
  }
  const size_t d = row - main_row_count_;
  return txns_->IsVisible(delta_begin_tids_[d], txn) &&
         !txns_->IsDeleted(delta_end_tids_[d], txn);
}

StatusOr<Value> Table::GetValue(ColumnId column, RowId row,
                                uint32_t queue_depth, IoStats* io) const {
  HYTAP_ASSERT(column < schema_.size(), "column id out of range");
  HYTAP_ASSERT(row < row_count(), "row id out of range");
  if (row >= main_row_count_) {
    if (io != nullptr) io->dram_ns += 2 * kDramTouchNs;
    return delta_columns_[column]->GetValue(row - main_row_count_);
  }
  if (placement_[column]) {
    if (io != nullptr) io->dram_ns += 2 * kDramTouchNs;
    return mrc_columns_[column]->GetValue(row);
  }
  HYTAP_ASSERT(sscg_ != nullptr, "SSCG-placed column without SSCG");
  HYTAP_ASSERT(buffers_ != nullptr, "tiered table needs a buffer manager");
  const int slot = sscg_->layout().SlotOf(column);
  HYTAP_ASSERT(slot >= 0, "column not a member of the SSCG");
  return sscg_->ProbeValue(row, static_cast<size_t>(slot), buffers_,
                           queue_depth, io);
}

StatusOr<Row> Table::ReconstructRow(RowId row, uint32_t queue_depth,
                                    IoStats* io) const {
  HYTAP_ASSERT(row < row_count(), "row id out of range");
  Row result(schema_.size());
  if (row >= main_row_count_) {
    const RowId d = row - main_row_count_;
    for (size_t c = 0; c < schema_.size(); ++c) {
      result[c] = delta_columns_[c]->GetValue(d);
      if (io != nullptr) io->dram_ns += 2 * kDramTouchNs;
    }
    return result;
  }
  // SSCG part: one page access covers all member attributes.
  if (sscg_ != nullptr && sscg_->layout().member_count() > 0) {
    auto group = sscg_->ReconstructTuple(row, buffers_, queue_depth, io);
    if (!group.ok()) return group.status();
    const auto& members = sscg_->layout().member_columns();
    for (size_t slot = 0; slot < members.size(); ++slot) {
      result[members[slot]] = std::move((*group)[slot]);
    }
  }
  // MRC part: two DRAM touches per attribute (value vector + dictionary).
  for (size_t c = 0; c < schema_.size(); ++c) {
    if (!placement_[c]) continue;
    result[c] = mrc_columns_[c]->GetValue(row);
    if (io != nullptr) io->dram_ns += 2 * kDramTouchNs;
  }
  return result;
}

ColumnValues Table::SlotValues(ColumnId column) const {
  HYTAP_ASSERT(sscg_ != nullptr && store_ != nullptr,
               "SSCG-placed column without SSCG/store");
  const int slot = sscg_->layout().SlotOf(column);
  HYTAP_ASSERT(slot >= 0, "column not a member of the SSCG");
  return sscg_->DecodeSlot(static_cast<size_t>(slot), *store_);
}

ColumnValues Table::MainValues(ColumnId column) const {
  return placement_[column] ? DecodeDictionaryColumn(*mrc_columns_[column])
                            : SlotValues(column);
}

Status Table::VerifySscgPages() const {
  if (sscg_ == nullptr) return Status::Ok();
  HYTAP_ASSERT(store_ != nullptr, "SSCG without a store");
  for (PageId id : sscg_->page_ids()) {
    Status status = store_->VerifyPage(id);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Status Table::ReplaceSscg(
    const std::vector<ColumnId>& members,
    const std::vector<Sscg::SlotSource>& sources,
    const std::function<ColumnValues(ColumnId)>& values_of) {
  std::unique_ptr<Sscg> replaced = std::move(sscg_);
  if (!members.empty()) {
    HYTAP_ASSERT(store_ != nullptr,
                 "evicting columns requires a secondary store");
    sscg_ = std::make_unique<Sscg>(RowLayout(schema_, members),
                                   main_row_count_, sources, store_);
    // Verify-after-write: read back every freshly written page's checksum
    // before the DRAM copy is dropped. A silently corrupted eviction would
    // otherwise only surface at query time, when the data is unrecoverable.
    Status verify = VerifySscgPages();
    if (!verify.ok()) {
      // Abort the eviction: the values are still at hand, so every column
      // ends DRAM-resident (this writes no pages and cannot fail).
      for (ColumnId c = 0; c < schema_.size(); ++c) {
        if (mrc_columns_[c] != nullptr) continue;
        mrc_columns_[c] = BuildDictionaryColumn(values_of(c));
        column_dram_bytes_[c] = mrc_columns_[c]->MemoryUsage();
      }
      sscg_->ReleasePages(store_);
      sscg_.reset();
      if (replaced != nullptr) replaced->ReleasePages(store_);
      placement_.assign(schema_.size(), true);
      return verify;
    }
  }
  if (replaced != nullptr) replaced->ReleasePages(store_);
  placement_.assign(schema_.size(), true);
  for (ColumnId c : members) {
    mrc_columns_[c].reset();
    placement_[c] = false;
  }
  return Status::Ok();
}

Status Table::SetPlacement(const std::vector<bool>& in_dram,
                           uint64_t* migrated_bytes) {
  if (in_dram.size() != schema_.size()) {
    return Status::InvalidArgument("placement arity mismatch");
  }
  bool any_evicted = false;
  for (bool d : in_dram) any_evicted |= !d;
  if (any_evicted && (store_ == nullptr || buffers_ == nullptr)) {
    return Status::FailedPrecondition(
        "table has no secondary store / buffer manager");
  }
  // Loaded columns are decoded from the SSCG's raw pages and kept members
  // are copied from them (no checksum on that path), so verify them first:
  // silently corrupted bytes must not be laundered into fresh MRCs or the
  // new group.
  Status verify = VerifySscgPages();
  if (!verify.ok()) return verify;
  // A step changes neither values nor row ids: unmoved MRCs, the indexes
  // and the statistics stay as they are. A loaded column gets one MRC.
  for (ColumnId c = 0; c < schema_.size(); ++c) {
    if (placement_[c] || !in_dram[c]) continue;
    mrc_columns_[c] = BuildDictionaryColumn(SlotValues(c));
    column_dram_bytes_[c] = mrc_columns_[c]->MemoryUsage();
  }
  if (migrated_bytes != nullptr) {
    for (ColumnId c = 0; c < schema_.size(); ++c) {
      if (placement_[c] != in_dram[c]) *migrated_bytes += column_dram_bytes_[c];
    }
  }
  // The new group, written once: an evicted column's values come from its
  // MRC, a kept member's bytes from the old group.
  std::vector<ColumnId> members;
  for (ColumnId c = 0; c < schema_.size(); ++c) {
    if (!in_dram[c]) members.push_back(c);
  }
  std::vector<ColumnValues> evicted(members.size());
  std::vector<Sscg::SlotSource> sources(members.size());
  for (size_t slot = 0; slot < members.size(); ++slot) {
    const ColumnId c = members[slot];
    if (placement_[c]) {
      evicted[slot] = DecodeDictionaryColumn(*mrc_columns_[c]);
      sources[slot].values = &evicted[slot];
    } else {
      sources[slot].group = sscg_.get();
      sources[slot].slot = size_t(sscg_->layout().SlotOf(c));
    }
  }
  // On an aborted eviction the columns without an MRC are the kept
  // members, still readable from the old (verified) group.
  const Sscg* old_group = sscg_.get();
  return ReplaceSscg(members, sources, [&](ColumnId c) {
    return old_group->DecodeSlot(size_t(old_group->layout().SlotOf(c)),
                                 *store_);
  });
}

Status Table::MergeDelta() {
  // Survivors: main rows not invalidated by a committed transaction, then
  // committed delta rows not invalidated. Uses a maximal snapshot.
  Transaction merge_view;
  merge_view.tid = 0;
  merge_view.snapshot_cid = txns_->last_commit_cid();
  // SSCG columns are decoded from raw pages; refuse to merge from corrupt
  // bytes (the table, delta included, is left untouched).
  Status verify = VerifySscgPages();
  if (!verify.ok()) return verify;
  std::vector<RowId> kept;
  kept.reserve(main_row_count_);
  for (RowId r = 0; r < main_row_count_; ++r) {
    if (!txns_->IsDeleted(main_end_tids_[r], merge_view)) kept.push_back(r);
  }
  std::vector<size_t> fresh;
  for (size_t d = 0; d < delta_row_count(); ++d) {
    if (!txns_->IsVisible(delta_begin_tids_[d], merge_view)) continue;
    if (txns_->IsDeleted(delta_end_tids_[d], merge_view)) continue;
    fresh.push_back(d);
  }
  // Column by column: a DRAM column merges its dictionary with the delta's
  // values; an SSCG column is decoded for the rewrite, and the MRC it would
  // have is built for its a_i and statistics, then dropped.
  const size_t columns = schema_.size();
  std::vector<std::unique_ptr<AbstractColumn>> merged(columns);
  std::vector<ColumnValues> sscg_values(columns);
  std::vector<TableStatistics::Column> stats(columns);
  ForEachColumn(columns, [&](ColumnId c) {
    const ColumnValues appended =
        DeltaValues(*delta_columns_[c], schema_[c].type, fresh);
    if (placement_[c]) {
      merged[c] = MergeDictionaryColumn(*mrc_columns_[c], kept, appended);
    } else {
      const int slot = sscg_->layout().SlotOf(c);
      ColumnValues values =
          sscg_->DecodeSlot(static_cast<size_t>(slot), *store_, &kept);
      std::visit(
          [&](auto& typed) {
            using Vector = std::decay_t<decltype(typed)>;
            const Vector& tail = std::get<Vector>(appended);
            typed.insert(typed.end(), tail.begin(), tail.end());
          },
          values);
      merged[c] = BuildDictionaryColumn(values);
      sscg_values[c] = std::move(values);
    }
    column_dram_bytes_[c] = merged[c]->MemoryUsage();
    if (statistics_ != nullptr) {
      stats[c] = TableStatistics::BuildColumn(*merged[c], statistics_buckets_);
    }
    if (!placement_[c]) merged[c].reset();
  });
  main_row_count_ = kept.size() + fresh.size();
  for (ColumnId c = 0; c < columns; ++c) {
    if (placement_[c]) mrc_columns_[c] = std::move(merged[c]);
  }
  std::vector<ColumnId> members;
  if (sscg_ != nullptr) members = sscg_->layout().member_columns();
  std::vector<Sscg::SlotSource> sources(members.size());
  for (size_t slot = 0; slot < members.size(); ++slot) {
    sources[slot].values = &sscg_values[members[slot]];
  }
  // On a failed SSCG rewrite the merge still completes (the merged values
  // are authoritative) with every column DRAM-resident; only the eviction
  // is lost — report that via the returned status.
  const Status rewrite = ReplaceSscg(
      members, sources, [&](ColumnId c) { return std::move(sscg_values[c]); });
  for (size_t i = 0; i < index_definitions_.size(); ++i) {
    indexes_[i] = BuildIndex(index_definitions_[i]);
  }
  if (statistics_ != nullptr) {
    statistics_ = std::make_unique<TableStatistics>(std::move(stats));
  }
  main_end_tids_.assign(main_row_count_, kMaxTransactionId);
  // Reset the delta partition.
  delta_columns_.clear();
  for (const auto& def : schema_) {
    delta_columns_.push_back(MakeValueColumn(def));
  }
  delta_begin_tids_.clear();
  delta_end_tids_.clear();
  return rewrite;
}

Status Table::CreateIndex(const std::vector<ColumnId>& columns) {
  if (columns.empty()) {
    return Status::InvalidArgument("index needs at least one column");
  }
  for (ColumnId c : columns) {
    if (c >= schema_.size()) {
      return Status::InvalidArgument("index column out of range");
    }
  }
  index_definitions_.push_back(columns);
  indexes_.push_back(BuildIndex(columns));
  return Status::Ok();
}

std::unique_ptr<MainIndex> Table::BuildIndex(
    const std::vector<ColumnId>& columns) const {
  // The index constructors take boxed keys: box only the key columns.
  std::vector<std::vector<Value>> values;
  std::vector<DataType> types;
  for (ColumnId c : columns) {
    std::vector<Value>& boxed = values.emplace_back();
    boxed.reserve(main_row_count_);
    std::visit(
        [&](const auto& typed) {
          for (const auto& v : typed) boxed.emplace_back(v);
        },
        MainValues(c));
    types.push_back(schema_[c].type);
  }
  if (columns.size() == 1) {
    return std::make_unique<SingleColumnIndex>(columns[0], types[0],
                                               values[0]);
  }
  return std::make_unique<CompositeIndex>(columns, types, values);
}

void Table::BuildStatistics(size_t bucket_count) {
  statistics_buckets_ = bucket_count;
  std::vector<TableStatistics::Column> columns(schema_.size());
  ForEachColumn(schema_.size(), [&](ColumnId c) {
    if (placement_[c]) {
      columns[c] = TableStatistics::BuildColumn(*mrc_columns_[c], bucket_count);
      return;
    }
    // An SSCG column's statistics are those of the MRC it would have.
    columns[c] = TableStatistics::BuildColumn(
        *BuildDictionaryColumn(SlotValues(c)), bucket_count);
  });
  statistics_ = std::make_unique<TableStatistics>(std::move(columns));
}

const MainIndex* Table::FindIndex(ColumnId column) const {
  for (const auto& index : indexes_) {
    if (index->columns().size() == 1 && index->columns()[0] == column) {
      return index.get();
    }
  }
  return nullptr;
}

const MainIndex* Table::FindCompositeIndex(
    const std::vector<ColumnId>& columns) const {
  for (const auto& index : indexes_) {
    if (index->columns().size() < 2) continue;
    bool covered = true;
    for (ColumnId key_part : index->columns()) {
      if (std::find(columns.begin(), columns.end(), key_part) ==
          columns.end()) {
        covered = false;
        break;
      }
    }
    if (covered) return index.get();
  }
  return nullptr;
}

size_t Table::IndexDramBytes() const {
  size_t total = 0;
  for (const auto& index : indexes_) total += index->MemoryUsage();
  return total;
}

size_t Table::MainDramBytes() const {
  size_t total = 0;
  for (ColumnId c = 0; c < schema_.size(); ++c) {
    if (placement_[c]) total += column_dram_bytes_[c];
  }
  return total;
}

double Table::SelectivityEstimate(ColumnId column) const {
  HYTAP_ASSERT(column < schema_.size(), "column id out of range");
  // An SSCG-placed column, or an empty main partition (every row is in the
  // delta), falls back to the delta dictionary or a pessimistic guess.
  const size_t distinct = placement_[column] && main_row_count_ > 0
                              ? mrc_columns_[column]->distinct_count()
                              : delta_columns_[column]->distinct_count();
  return 1.0 / static_cast<double>(std::max<size_t>(distinct, 1));
}

}  // namespace hytap
