#include "storage/table.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/random.h"
#include "common/thread_pool.h"
#include "query/executor.h"
#include "storage/dictionary_column.h"
#include "workload/tpcc.h"

namespace hytap {
namespace {

Schema TestSchema() {
  Schema schema;
  schema.push_back({"id", DataType::kInt32, 0});
  schema.push_back({"grp", DataType::kInt32, 0});
  schema.push_back({"amount", DataType::kDouble, 0});
  schema.push_back({"note", DataType::kString, 12});
  return schema;
}

std::vector<Row> TestRows(size_t n) {
  std::vector<Row> rows;
  for (size_t r = 0; r < n; ++r) {
    rows.push_back(Row{Value(int32_t(r)), Value(int32_t(r % 7)),
                       Value(double(r) * 1.5),
                       Value("n" + std::to_string(r % 3))});
  }
  return rows;
}

class TableTest : public ::testing::Test {
 protected:
  TableTest()
      : store_(DeviceKind::kXpoint),
        buffers_(&store_, 16),
        table_("t", TestSchema(), &txns_, &store_, &buffers_) {}

  TransactionManager txns_;
  SecondaryStore store_;
  BufferManager buffers_;
  Table table_;
};

TEST_F(TableTest, BulkLoadAllDram) {
  table_.BulkLoad(TestRows(100));
  EXPECT_EQ(table_.main_row_count(), 100u);
  EXPECT_EQ(table_.row_count(), 100u);
  for (ColumnId c = 0; c < 4; ++c) {
    EXPECT_EQ(table_.location(c), ColumnLocation::kDram);
    EXPECT_GT(table_.ColumnDramBytes(c), 0u);
  }
  EXPECT_EQ(*table_.GetValue(0, 42, 1, nullptr), Value(int32_t{42}));
  EXPECT_EQ(*table_.GetValue(2, 10, 1, nullptr), Value(15.0));
}

TEST_F(TableTest, InsertGoesToDelta) {
  table_.BulkLoad(TestRows(10));
  Transaction txn = txns_.Begin();
  ASSERT_TRUE(table_
                  .Insert(txn, Row{Value(int32_t{100}), Value(int32_t{1}),
                                   Value(0.5), Value("x")})
                  .ok());
  txns_.Commit(&txn);
  EXPECT_EQ(table_.delta_row_count(), 1u);
  EXPECT_EQ(table_.row_count(), 11u);
  EXPECT_EQ(*table_.GetValue(0, 10, 1, nullptr), Value(int32_t{100}));
}

TEST_F(TableTest, InsertArityAndTypeChecked) {
  table_.BulkLoad(TestRows(1));
  Transaction txn = txns_.Begin();
  EXPECT_FALSE(table_.Insert(txn, Row{Value(int32_t{1})}).ok());
  EXPECT_FALSE(table_
                   .Insert(txn, Row{Value(1.0), Value(int32_t{1}),
                                    Value(0.5), Value("x")})
                   .ok());
}

TEST_F(TableTest, MvccVisibility) {
  table_.BulkLoad(TestRows(5));
  Transaction writer = txns_.Begin();
  ASSERT_TRUE(table_
                  .Insert(writer, Row{Value(int32_t{99}), Value(int32_t{0}),
                                      Value(1.0), Value("w")})
                  .ok());
  Transaction other = txns_.Begin();
  EXPECT_TRUE(table_.IsVisible(5, writer));   // own write
  EXPECT_FALSE(table_.IsVisible(5, other));   // uncommitted
  txns_.Commit(&writer);
  EXPECT_FALSE(table_.IsVisible(5, other));   // stale snapshot
  Transaction later = txns_.Begin();
  EXPECT_TRUE(table_.IsVisible(5, later));
}

TEST_F(TableTest, DeleteInvalidates) {
  table_.BulkLoad(TestRows(5));
  Transaction deleter = txns_.Begin();
  ASSERT_TRUE(table_.Delete(deleter, 2).ok());
  txns_.Commit(&deleter);
  Transaction reader = txns_.Begin();
  EXPECT_FALSE(table_.IsVisible(2, reader));
  EXPECT_TRUE(table_.IsVisible(1, reader));
}

TEST_F(TableTest, SetPlacementEvictsToSscg) {
  table_.BulkLoad(TestRows(200));
  uint64_t migrated = 0;
  // Evict columns 2 and 3.
  ASSERT_TRUE(
      table_.SetPlacement({true, true, false, false}, &migrated).ok());
  EXPECT_GT(migrated, 0u);
  EXPECT_EQ(table_.location(0), ColumnLocation::kDram);
  EXPECT_EQ(table_.location(2), ColumnLocation::kSecondary);
  ASSERT_NE(table_.sscg(), nullptr);
  EXPECT_EQ(table_.sscg()->layout().member_count(), 2u);
  // Values still correct from the SSCG.
  EXPECT_EQ(*table_.GetValue(2, 10, 1, nullptr), Value(15.0));
  EXPECT_EQ(*table_.GetValue(3, 4, 1, nullptr), Value("n1"));
  // DRAM footprint shrank.
  EXPECT_EQ(table_.MainDramBytes(),
            table_.ColumnDramBytes(0) + table_.ColumnDramBytes(1));
}

TEST_F(TableTest, PlacementRoundTripRestoresMrc) {
  table_.BulkLoad(TestRows(100));
  ASSERT_TRUE(table_.SetPlacement({true, false, false, true}, nullptr).ok());
  ASSERT_TRUE(table_.SetPlacement({true, true, true, true}, nullptr).ok());
  EXPECT_EQ(table_.sscg(), nullptr);
  for (RowId r = 0; r < 100; r += 17) {
    EXPECT_EQ(*table_.GetValue(1, r, 1, nullptr), Value(int32_t(r % 7)));
    EXPECT_EQ(*table_.GetValue(2, r, 1, nullptr), Value(double(r) * 1.5));
  }
}

TEST_F(TableTest, ReconstructRowAcrossLocations) {
  const auto rows = TestRows(50);
  table_.BulkLoad(rows);
  ASSERT_TRUE(table_.SetPlacement({true, false, false, false}, nullptr).ok());
  IoStats io;
  Row got = *table_.ReconstructRow(33, 1, &io);
  EXPECT_EQ(got, rows[33]);
  // One page read for the three SSCG attributes + DRAM touches for the MRC.
  EXPECT_EQ(io.page_reads + io.cache_hits, 1u);
  EXPECT_GT(io.dram_ns, 0u);
}

TEST_F(TableTest, ReconstructDeltaRow) {
  table_.BulkLoad(TestRows(5));
  Transaction txn = txns_.Begin();
  Row fresh{Value(int32_t{500}), Value(int32_t{5}), Value(9.5), Value("new")};
  ASSERT_TRUE(table_.Insert(txn, fresh).ok());
  txns_.Commit(&txn);
  EXPECT_EQ(*table_.ReconstructRow(5, 1, nullptr), fresh);
}

TEST_F(TableTest, MergeDeltaMovesRowsToMain) {
  table_.BulkLoad(TestRows(10));
  Transaction txn = txns_.Begin();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(table_
                    .Insert(txn, Row{Value(int32_t{100 + i}),
                                     Value(int32_t{1}), Value(1.0),
                                     Value("d")})
                    .ok());
  }
  txns_.Commit(&txn);
  table_.MergeDelta();
  EXPECT_EQ(table_.main_row_count(), 15u);
  EXPECT_EQ(table_.delta_row_count(), 0u);
  EXPECT_EQ(*table_.GetValue(0, 12, 1, nullptr), Value(int32_t{102}));
}

TEST_F(TableTest, MergeDropsDeletedAndUncommitted) {
  table_.BulkLoad(TestRows(10));
  Transaction deleter = txns_.Begin();
  ASSERT_TRUE(table_.Delete(deleter, 3).ok());
  txns_.Commit(&deleter);
  Transaction in_flight = txns_.Begin();
  ASSERT_TRUE(table_
                  .Insert(in_flight, Row{Value(int32_t{999}),
                                         Value(int32_t{0}), Value(0.0),
                                         Value("u")})
                  .ok());
  // Aborted rows must not survive the merge either.
  txns_.Abort(&in_flight);
  table_.MergeDelta();
  EXPECT_EQ(table_.main_row_count(), 9u);  // row 3 removed, insert dropped
  Transaction reader = txns_.Begin();
  for (RowId r = 0; r < table_.main_row_count(); ++r) {
    EXPECT_TRUE(table_.IsVisible(r, reader));
    EXPECT_NE(*table_.GetValue(0, r, 1, nullptr), Value(int32_t{3}));
    EXPECT_NE(*table_.GetValue(0, r, 1, nullptr), Value(int32_t{999}));
  }
}

TEST_F(TableTest, MergePreservesPlacement) {
  table_.BulkLoad(TestRows(20));
  ASSERT_TRUE(table_.SetPlacement({true, true, false, false}, nullptr).ok());
  Transaction txn = txns_.Begin();
  ASSERT_TRUE(table_
                  .Insert(txn, Row{Value(int32_t{777}), Value(int32_t{2}),
                                   Value(2.5), Value("m")})
                  .ok());
  txns_.Commit(&txn);
  table_.MergeDelta();
  EXPECT_EQ(table_.location(2), ColumnLocation::kSecondary);
  EXPECT_EQ(table_.main_row_count(), 21u);
  EXPECT_EQ(*table_.GetValue(2, 20, 1, nullptr), Value(2.5));
  EXPECT_EQ(*table_.GetValue(3, 20, 1, nullptr), Value("m"));
}

TEST_F(TableTest, SelectivityEstimateIsInverseDistinct) {
  table_.BulkLoad(TestRows(100));
  // Column 1 has 7 distinct values.
  EXPECT_NEAR(table_.SelectivityEstimate(1), 1.0 / 7.0, 1e-12);
  // Column 0 is unique.
  EXPECT_NEAR(table_.SelectivityEstimate(0), 1.0 / 100.0, 1e-12);
}

TEST_F(TableTest, SelectivityEstimateOfEmptyMainUsesDelta) {
  // Never loaded: every row is in the delta, and so is every distinct value.
  Transaction txn = txns_.Begin();
  for (const Row& row : TestRows(20)) ASSERT_TRUE(table_.Insert(txn, row).ok());
  txns_.Commit(&txn);
  EXPECT_NEAR(table_.SelectivityEstimate(1), 1.0 / 7.0, 1e-12);
  EXPECT_NEAR(table_.SelectivityEstimate(0), 1.0 / 20.0, 1e-12);
}

TEST_F(TableTest, InsertRejectsStringsThatEvictionWouldChange) {
  table_.BulkLoad(TestRows(10));
  Transaction txn = txns_.Begin();
  auto row = [](std::string note) {
    return Row{Value(int32_t{1}), Value(int32_t{1}), Value(1.0),
               Value(std::move(note))};
  };
  // "note" is 12 bytes wide in the SSCG: a longer value would be truncated
  // and a trailing NUL stripped on eviction.
  EXPECT_EQ(table_.Insert(txn, row("abcdefghijklm")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table_.Insert(txn, row(std::string("ab\0", 3))).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table_.delta_row_count(), 0u);
  ASSERT_TRUE(table_.Insert(txn, row("abcdefghijkl")).ok());
  ASSERT_TRUE(table_.Insert(txn, row(std::string("a\0b", 3))).ok());
  txns_.Commit(&txn);
  ASSERT_TRUE(table_.MergeDelta().ok());
  // Evicted and loaded back, the accepted values are unchanged.
  ASSERT_TRUE(table_.SetPlacement({true, true, true, false}).ok());
  ASSERT_TRUE(table_.SetPlacement({true, true, true, true}).ok());
  EXPECT_EQ(*table_.GetValue(3, 10, 1, nullptr), Value("abcdefghijkl"));
  EXPECT_EQ(*table_.GetValue(3, 11, 1, nullptr),
            Value(std::string("a\0b", 3)));
}

TEST(TableDeathTest, BulkLoadRejectsValuesThatDoNotMatchTheSchema) {
  TransactionManager txns;
  Table table("t", TestSchema(), &txns);
  std::vector<Row> long_note = TestRows(3);
  long_note[1][3] = Value("abcdefghijklm");
  EXPECT_DEATH(table.BulkLoad(long_note), "string_width");
  std::vector<Row> wrong_type = TestRows(3);
  wrong_type[2][1] = Value(2.5);
  EXPECT_DEATH(table.BulkLoad(wrong_type), "value type mismatch");
}

TEST_F(TableTest, PlacementStepKeepsUnmovedStructures) {
  table_.BulkLoad(TestRows(300));
  ASSERT_TRUE(table_.CreateIndex({1}).ok());
  ASSERT_TRUE(table_.CreateIndex({1, 3}).ok());
  table_.BuildStatistics();
  ASSERT_TRUE(table_.SetPlacement({true, true, false, true}).ok());
  const AbstractColumn* mrc0 = table_.mrc(0);
  const AbstractColumn* mrc1 = table_.mrc(1);
  const MainIndex* index0 = table_.indexes()[0].get();
  const MainIndex* index1 = table_.indexes()[1].get();
  const TableStatistics* stats = table_.statistics();
  // Load column 2, evict column 3: neither values nor row ids change.
  ASSERT_TRUE(table_.SetPlacement({true, true, true, false}).ok());
  EXPECT_EQ(table_.mrc(0), mrc0);
  EXPECT_EQ(table_.mrc(1), mrc1);
  EXPECT_EQ(table_.indexes()[0].get(), index0);
  EXPECT_EQ(table_.indexes()[1].get(), index1);
  EXPECT_EQ(table_.statistics(), stats);
  EXPECT_EQ(table_.mrc(3), nullptr);
  ASSERT_NE(table_.mrc(2), nullptr);
}

// --- Equivalence with a from-scratch build ---------------------------------
//
// A seeded sequence of placement steps and merges, checked after every
// operation against a reference built from the table's logical rows with the
// public builders (BuildDictionaryColumn, the row-wise Sscg constructor,
// TableStatistics::Build, the index constructors).

Schema MixedSchema() {
  Schema schema = OrderlineSchema();  // int32, int64, double, string(24)
  schema.push_back({"ol_ratio", DataType::kFloat, 0});
  return schema;
}

Row MixedRow(Rng& rng, int32_t id) {
  // Short strings sit in std::string's inline buffer, long ones on the
  // heap; both kinds repeat, and the short ones sort after the long ones,
  // which exercises the capacities the dictionaries count.
  const std::string suffix = std::to_string(rng.NextBounded(40));
  std::string info =
      rng.NextBounded(2) == 0 ? "e-" + suffix : "dist-info-long-" + suffix;
  return Row{Value(id),
             Value(int32_t(1 + rng.NextBounded(10))),
             Value(int32_t(1 + rng.NextBounded(3))),
             Value(int32_t(1 + rng.NextBounded(15))),
             Value(int32_t(1 + rng.NextBounded(400))),
             Value(int32_t(1 + rng.NextBounded(3))),
             Value(int64_t(1514764800) + int64_t(rng.NextBounded(86400 * 90))),
             Value(int32_t(1 + rng.NextBounded(10))),
             Value(double(rng.NextBounded(1000000)) / 100.0),
             Value(std::move(info)),
             Value(float(rng.NextBounded(4000)) / 8.0f)};
}

template <typename T>
void ExpectSameMrc(const AbstractColumn& got_column,
                   const AbstractColumn& want_column) {
  const auto* got = dynamic_cast<const DictionaryColumn<T>*>(&got_column);
  const auto* want = dynamic_cast<const DictionaryColumn<T>*>(&want_column);
  ASSERT_NE(got, nullptr);
  ASSERT_NE(want, nullptr);
  EXPECT_EQ(got->dictionary().values(), want->dictionary().values());
  EXPECT_EQ(got->dictionary().MemoryUsage(), want->dictionary().MemoryUsage());
  EXPECT_EQ(got->codes().bits(), want->codes().bits());
  ASSERT_EQ(got->codes().size(), want->codes().size());
  for (size_t r = 0; r < got->codes().size(); ++r) {
    ASSERT_EQ(got->codes().Get(r), want->codes().Get(r)) << "row " << r;
  }
  const ZoneMap& got_zones = got->codes().zone_map();
  const ZoneMap& want_zones = want->codes().zone_map();
  ASSERT_EQ(got_zones.zone_count(), want_zones.zone_count());
  for (size_t z = 0; z < got_zones.zone_count(); ++z) {
    EXPECT_EQ(got_zones.zone_min(z), want_zones.zone_min(z));
    EXPECT_EQ(got_zones.zone_max(z), want_zones.zone_max(z));
  }
  EXPECT_EQ(got->MemoryUsage(), want->MemoryUsage());
}

void ExpectSameMrcOfType(DataType type, const AbstractColumn& got,
                         const AbstractColumn& want) {
  switch (type) {
    case DataType::kInt32:
      return ExpectSameMrc<int32_t>(got, want);
    case DataType::kInt64:
      return ExpectSameMrc<int64_t>(got, want);
    case DataType::kFloat:
      return ExpectSameMrc<float>(got, want);
    case DataType::kDouble:
      return ExpectSameMrc<double>(got, want);
    case DataType::kString:
      return ExpectSameMrc<std::string>(got, want);
  }
}

/// Compares `table`'s main partition with a from-scratch build of `model`,
/// its logical main rows.
void ExpectMatchesFromScratch(const Table& table,
                              const std::vector<Row>& model) {
  const Schema& schema = table.schema();
  ASSERT_EQ(table.main_row_count(), model.size());
  std::vector<std::vector<Value>> columns(schema.size());
  for (const Row& row : model) {
    for (ColumnId c = 0; c < schema.size(); ++c) columns[c].push_back(row[c]);
  }
  // MRCs and every column's a_i.
  std::vector<ColumnId> members;
  for (ColumnId c = 0; c < schema.size(); ++c) {
    SCOPED_TRACE("column " + std::to_string(c));
    const auto reference = BuildDictionaryColumn(schema[c], columns[c]);
    EXPECT_EQ(table.ColumnDramBytes(c), reference->MemoryUsage());
    if (table.location(c) == ColumnLocation::kDram) {
      ASSERT_NE(table.mrc(c), nullptr);
      ExpectSameMrcOfType(schema[c].type, *table.mrc(c), *reference);
    } else {
      EXPECT_EQ(table.mrc(c), nullptr);
      members.push_back(c);
    }
  }
  // The SSCG: members, pages, page bytes and synopsis.
  if (members.empty()) {
    EXPECT_EQ(table.sscg(), nullptr);
  } else {
    ASSERT_NE(table.sscg(), nullptr);
    std::vector<Row> group_rows;
    for (const Row& row : model) {
      Row& group_row = group_rows.emplace_back();
      for (ColumnId c : members) group_row.push_back(row[c]);
    }
    SecondaryStore scratch(DeviceKind::kXpoint);
    const Sscg reference(RowLayout(schema, members), group_rows, &scratch);
    const Sscg& sscg = *table.sscg();
    EXPECT_EQ(sscg.layout().member_columns(), members);
    ASSERT_EQ(sscg.page_count(), reference.page_count());
    for (size_t p = 0; p < sscg.page_count(); ++p) {
      EXPECT_EQ(table.store()->RawPage(sscg.page_ids()[p]),
                scratch.RawPage(reference.page_ids()[p]))
          << "page " << p;
    }
    EXPECT_TRUE(sscg.synopsis() == reference.synopsis());
    EXPECT_EQ(table.store()->resident_page_count(), sscg.page_count());
  }
  // Statistics.
  if (table.statistics() != nullptr) {
    EXPECT_TRUE(*table.statistics() ==
                TableStatistics::Build(schema, columns));
  }
  // Indexes: every row's key looks up the same rows.
  for (const auto& index : table.indexes()) {
    const std::vector<ColumnId>& key_columns = index->columns();
    std::unique_ptr<MainIndex> reference;
    if (key_columns.size() == 1) {
      reference = std::make_unique<SingleColumnIndex>(
          key_columns[0], schema[key_columns[0]].type,
          columns[key_columns[0]]);
    } else {
      std::vector<DataType> types;
      std::vector<std::vector<Value>> key_values;
      for (ColumnId c : key_columns) {
        types.push_back(schema[c].type);
        key_values.push_back(columns[c]);
      }
      reference =
          std::make_unique<CompositeIndex>(key_columns, types, key_values);
    }
    EXPECT_EQ(index->size(), reference->size());
    EXPECT_EQ(index->MemoryUsage(), reference->MemoryUsage());
    for (size_t r = 0; r < model.size(); r += 3) {
      Row key;
      for (ColumnId c : key_columns) key.push_back(model[r][c]);
      EXPECT_EQ(index->Lookup(key), reference->Lookup(key)) << "row " << r;
    }
  }
  // Query results: every cell, every tuple, and a range scan per column.
  for (RowId r = 0; r < model.size(); ++r) {
    auto row = table.ReconstructRow(r, 1, nullptr);
    ASSERT_TRUE(row.ok());
    ASSERT_EQ(*row, model[r]) << "row " << r;
  }
  TransactionManager* txns = table.txns();
  Transaction reader = txns->Begin();
  QueryExecutor executor(&table);
  for (ColumnId c = 0; c < schema.size(); ++c) {
    if (model.empty()) break;
    const Value lo = model[model.size() / 3][c];
    const Value hi = std::max(lo, model[model.size() / 2][c]);
    Query query;
    query.predicates.push_back(Predicate::Between(c, lo, hi));
    query.projections = {c};
    const QueryResult result = executor.Execute(reader, query, 2);
    ASSERT_TRUE(result.status.ok());
    PositionList expected;
    for (RowId r = 0; r < model.size(); ++r) {
      if (lo <= model[r][c] && model[r][c] <= hi) expected.push_back(r);
    }
    EXPECT_EQ(result.positions, expected) << "column " << c;
  }
  txns->Abort(&reader);
}

void RunEquivalenceSequence(uint64_t seed) {
  TransactionManager txns;
  SecondaryStore store(DeviceKind::kXpoint);
  BufferManager buffers(&store, 8);
  Table table("mixed", MixedSchema(), &txns, &store, &buffers);
  const size_t columns = table.column_count();
  Rng rng(seed);
  int32_t next_id = 0;
  std::vector<Row> model;
  for (int i = 0; i < 600; ++i) model.push_back(MixedRow(rng, next_id++));
  table.BulkLoad(model);
  ASSERT_TRUE(table.CreateIndex({kOlIId}).ok());
  ASSERT_TRUE(table.CreateIndex({kOlWId, kOlDId, kOlOId}).ok());
  ASSERT_TRUE(table.CreateIndex({kOlDistInfo}).ok());
  table.BuildStatistics();
  ExpectMatchesFromScratch(table, model);

  std::vector<bool> placement(columns, true);
  for (int op = 0; op < 24; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    // Placement steps of every kind first, then a merge every sixth op.
    const uint64_t kind =
        op < 4 ? uint64_t(op) : (op % 6 == 5 ? 4 : rng.NextBounded(4));
    if (kind == 0) {  // evict one DRAM column
      std::vector<ColumnId> dram;
      for (ColumnId c = 0; c < columns; ++c) {
        if (placement[c]) dram.push_back(c);
      }
      if (dram.size() > 1) {
        placement[dram[rng.NextBounded(dram.size())]] = false;
      }
    } else if (kind == 1) {  // load one SSCG column
      std::vector<ColumnId> tiered;
      for (ColumnId c = 0; c < columns; ++c) {
        if (!placement[c]) tiered.push_back(c);
      }
      if (!tiered.empty()) {
        placement[tiered[rng.NextBounded(tiered.size())]] = true;
      }
    } else if (kind == 2) {  // multi-column diff
      for (ColumnId c = 0; c < columns; ++c) {
        if (rng.NextBounded(3) == 0) placement[c] = !placement[c];
      }
    } else if (kind == 3) {  // all DRAM
      placement.assign(columns, true);
    }
    if (kind <= 3) {
      uint64_t migrated = 0;
      ASSERT_TRUE(table.SetPlacement(placement, &migrated).ok());
      ExpectMatchesFromScratch(table, model);
      continue;
    }
    // Merge: deleted main rows, and delta rows that are committed, deleted,
    // aborted or still uncommitted; deleted rows hold values nothing else
    // holds (fresh ids, and fresh strings in the delta).
    const size_t main_rows = model.size();
    std::vector<bool> main_deleted(main_rows, false);
    Transaction deleter = txns.Begin();
    for (int k = 0; k < 25 && main_rows > 0; ++k) {
      const RowId r = rng.NextBounded(main_rows);
      if (main_deleted[r]) continue;
      main_deleted[r] = true;
      ASSERT_TRUE(table.Delete(deleter, r).ok());
    }
    txns.Commit(&deleter);
    std::vector<Row> survivors;
    for (size_t r = 0; r < main_rows; ++r) {
      if (!main_deleted[r]) survivors.push_back(model[r]);
    }
    Transaction writer = txns.Begin();
    std::vector<Row> committed;
    for (int k = 0; k < 40; ++k) {
      Row row = MixedRow(rng, next_id++);
      ASSERT_TRUE(table.Insert(writer, row).ok());
      committed.push_back(std::move(row));
    }
    txns.Commit(&writer);
    // Delete a few of the committed delta rows again.
    Transaction delta_deleter = txns.Begin();
    std::vector<bool> delta_deleted(committed.size(), false);
    for (size_t k = 0; k < committed.size(); k += 7) {
      delta_deleted[k] = true;
      ASSERT_TRUE(table.Delete(delta_deleter, main_rows + k).ok());
    }
    txns.Commit(&delta_deleter);
    Transaction aborted = txns.Begin();
    for (int k = 0; k < 5; ++k) {
      Row row = MixedRow(rng, next_id++);
      row[kOlDistInfo] = Value("aborted-" + std::to_string(k));
      ASSERT_TRUE(table.Insert(aborted, row).ok());
    }
    txns.Abort(&aborted);
    Transaction in_flight = txns.Begin();
    for (int k = 0; k < 5; ++k) {
      Row row = MixedRow(rng, next_id++);
      row[kOlDistInfo] = Value("in-flight-" + std::to_string(k));
      ASSERT_TRUE(table.Insert(in_flight, row).ok());
    }
    const Status merged = table.MergeDelta();
    txns.Abort(&in_flight);
    ASSERT_TRUE(merged.ok());
    model = std::move(survivors);
    for (size_t k = 0; k < committed.size(); ++k) {
      if (!delta_deleted[k]) model.push_back(committed[k]);
    }
    ExpectMatchesFromScratch(table, model);
  }
}

TEST(TableEquivalenceTest, StepsAndMergesMatchFromScratchBuild) {
  ThreadPool& pool = ThreadPool::Global();
  const size_t previous = pool.max_workers();
  for (size_t workers : {1, 2, 4}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    pool.set_max_workers(workers);
    RunEquivalenceSequence(/*seed=*/11);
    RunEquivalenceSequence(/*seed=*/12);
  }
  pool.set_max_workers(previous);
}

// A table that never had BulkLoad starts with an empty MRC per column, so
// merges, indexes, statistics and placement steps work on it whichever of
// them comes first, and each matches a from-scratch build.
TEST(TableEquivalenceTest, NeverLoadedTableMatchesFromScratchBuild) {
  enum class Op { kMerge, kIndex, kStatistics, kEvict };
  const std::vector<std::vector<Op>> orders = {
      {Op::kMerge, Op::kIndex, Op::kStatistics, Op::kEvict},
      {Op::kIndex, Op::kStatistics, Op::kEvict, Op::kMerge},
      {Op::kStatistics, Op::kEvict, Op::kMerge, Op::kIndex},
      {Op::kEvict, Op::kMerge, Op::kIndex, Op::kStatistics}};
  for (size_t order = 0; order < orders.size(); ++order) {
    SCOPED_TRACE("order " + std::to_string(order));
    TransactionManager txns;
    SecondaryStore store(DeviceKind::kXpoint);
    BufferManager buffers(&store, 8);
    Table table("fresh", MixedSchema(), &txns, &store, &buffers);
    std::vector<Row> model;
    ExpectMatchesFromScratch(table, model);
    EXPECT_EQ(table.MainDramBytes(), 0u);
    Rng rng(21 + order);
    int32_t next_id = 0;
    for (Op op : orders[order]) {
      if (op == Op::kMerge) {
        Transaction writer = txns.Begin();
        std::vector<Row> rows;
        for (int k = 0; k < 300; ++k) {
          rows.push_back(MixedRow(rng, next_id++));
          ASSERT_TRUE(table.Insert(writer, rows.back()).ok());
        }
        txns.Commit(&writer);
        Transaction aborted = txns.Begin();
        ASSERT_TRUE(table.Insert(aborted, MixedRow(rng, next_id++)).ok());
        txns.Abort(&aborted);
        ASSERT_TRUE(table.MergeDelta().ok());
        model = std::move(rows);
      } else if (op == Op::kIndex) {
        ASSERT_TRUE(table.CreateIndex({kOlIId}).ok());
        ASSERT_TRUE(table.CreateIndex({kOlWId, kOlDId, kOlOId}).ok());
      } else if (op == Op::kStatistics) {
        table.BuildStatistics();
      } else {
        std::vector<bool> placement(table.column_count(), true);
        placement[kOlAmount] = placement[kOlDistInfo] = false;
        ASSERT_TRUE(table.SetPlacement(placement).ok());
      }
      ExpectMatchesFromScratch(table, model);
    }
    ASSERT_TRUE(
        table.SetPlacement(std::vector<bool>(table.column_count(), true)).ok());
    ExpectMatchesFromScratch(table, model);
  }
}

TEST_F(TableTest, PlacementRequiresStore) {
  TransactionManager txns;
  Table untethered("u", TestSchema(), &txns);  // no store/buffers
  untethered.BulkLoad(TestRows(5));
  EXPECT_FALSE(untethered.SetPlacement({true, true, true, false}).ok());
  EXPECT_TRUE(untethered.SetPlacement({true, true, true, true}).ok());
}

}  // namespace
}  // namespace hytap
