// Tests of the multi-table database layer: shared transactions, hash join,
// auto-merge, and the global (cross-table) advisor of paper §III-G.

#include "core/database.h"

#include <gtest/gtest.h>

#include "core/global_advisor.h"
#include "workload/tpcc.h"

namespace hytap {
namespace {

std::unique_ptr<Database> MakeTpccDatabase() {
  auto db = std::make_unique<Database>();
  OrderlineParams params;
  params.warehouses = 2;
  params.districts_per_warehouse = 3;
  params.orders_per_district = 20;
  params.items = 200;
  Table* orderline = db->CreateTable("orderline", OrderlineSchema());
  orderline->BulkLoad(GenerateOrderlineRows(params));
  Table* item = db->CreateTable("item", ItemSchema());
  item->BulkLoad(GenerateItemRows(params.items, 11));
  return db;
}

TEST(DatabaseTest, CreateAndLookupTables) {
  auto db = MakeTpccDatabase();
  EXPECT_EQ(db->table_count(), 2u);
  EXPECT_NE(db->GetTable("orderline"), nullptr);
  EXPECT_NE(db->GetTable("item"), nullptr);
  EXPECT_EQ(db->GetTable("nope"), nullptr);
  EXPECT_EQ(db->tables().size(), 2u);
}

TEST(DatabaseTest, CrossTableSnapshotConsistency) {
  auto db = MakeTpccDatabase();
  Transaction writer = db->Begin();
  ASSERT_TRUE(db->GetTable("item")
                  ->Insert(writer, Row{Value(int32_t{999}), Value("new"),
                                       Value(50.0), Value("d")})
                  .ok());
  Transaction reader_before = db->Begin();
  db->Commit(&writer);
  Transaction reader_after = db->Begin();
  Query q;
  q.predicates.push_back(Predicate::Equals(kIId, Value(int32_t{999})));
  EXPECT_TRUE(db->Execute(reader_before, "item", q).positions.empty());
  EXPECT_EQ(db->Execute(reader_after, "item", q).positions.size(), 1u);
}

TEST(DatabaseTest, ExecuteRecordsPerTablePlanCache) {
  auto db = MakeTpccDatabase();
  Transaction txn = db->Begin();
  db->Execute(txn, "orderline", DeliveryQuery(1, 1, 1));
  db->Execute(txn, "orderline", DeliveryQuery(1, 2, 2));
  EXPECT_EQ(db->plan_cache("orderline").total_executions(), 2u);
  EXPECT_EQ(db->plan_cache("item").total_executions(), 0u);
}

TEST(DatabaseTest, HashJoinMatchesNaive) {
  auto db = MakeTpccDatabase();
  Transaction txn = db->Begin();
  ChQuery19Join join = MakeChQuery19Join(1, 1, 5, 10.0, 60.0);
  JoinResult result =
      db->ExecuteJoin(txn, "orderline", join.orderline, "item", join.item,
                      join.spec);
  // Naive evaluation.
  const Table* ol = db->GetTable("orderline");
  const Table* item = db->GetTable("item");
  size_t expected = 0;
  for (RowId o = 0; o < ol->row_count(); ++o) {
    bool ok = true;
    for (const Predicate& p : join.orderline.predicates) {
      if (!p.Matches(*ol->GetValue(p.column, o, 1, nullptr))) ok = false;
    }
    if (!ok) continue;
    const Value key = *ol->GetValue(kOlIId, o, 1, nullptr);
    for (RowId i = 0; i < item->row_count(); ++i) {
      if (*item->GetValue(kIId, i, 1, nullptr) != key) continue;
      bool iok = true;
      for (const Predicate& p : join.item.predicates) {
        if (!p.Matches(*item->GetValue(p.column, i, 1, nullptr))) iok = false;
      }
      if (iok) ++expected;
    }
  }
  EXPECT_EQ(result.matches.size(), expected);
  EXPECT_GT(expected, 0u);
  ASSERT_EQ(result.rows.size(), expected);
  // Projections: ol_amount then i_price; price respects the band.
  for (const Row& row : result.rows) {
    EXPECT_GE(row[1].AsDouble(), 10.0);
    EXPECT_LE(row[1].AsDouble(), 60.0);
  }
}

TEST(DatabaseTest, JoinResultsStableUnderTiering) {
  auto db = MakeTpccDatabase();
  Transaction txn = db->Begin();
  ChQuery19Join join = MakeChQuery19Join(2, 2, 8, 5.0, 80.0);
  JoinResult before = db->ExecuteJoin(txn, "orderline", join.orderline,
                                      "item", join.item, join.spec);
  // Evict the join key and the projected amount on the orderline side, plus
  // the price on the item side.
  std::vector<bool> ol_placement(10, true);
  ol_placement[kOlIId] = false;
  ol_placement[kOlAmount] = false;
  ASSERT_TRUE(db->GetTable("orderline")->SetPlacement(ol_placement).ok());
  std::vector<bool> item_placement(4, true);
  item_placement[kIPrice] = false;
  item_placement[kIData] = false;
  ASSERT_TRUE(db->GetTable("item")->SetPlacement(item_placement).ok());
  JoinResult after = db->ExecuteJoin(txn, "orderline", join.orderline,
                                     "item", join.item, join.spec);
  EXPECT_EQ(before.matches, after.matches);
  EXPECT_GT(after.io.device_ns, 0u);  // tiered access paid device time
}

TEST(DatabaseTest, JoinRecordsJoinColumnsInPlanCache) {
  auto db = MakeTpccDatabase();
  Transaction txn = db->Begin();
  ChQuery19Join join = MakeChQuery19Join(1, 1, 5, 10.0, 60.0);
  db->ExecuteJoin(txn, "orderline", join.orderline, "item", join.item,
                  join.spec);
  auto g = db->plan_cache("orderline")
               .ToWorkload(*db->GetTable("orderline"))
               .ColumnFrequencies();
  EXPECT_GT(g[kOlIId], 0.0);  // the join key counts as accessed
}

TEST(DatabaseTest, MaybeMergeHonorsThreshold) {
  DatabaseOptions options;
  options.merge_threshold = 0.5;
  Database db(options);
  Schema schema;
  schema.push_back({"v", DataType::kInt32, 0});
  Table* t = db.CreateTable("t", schema);
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) rows.push_back(Row{Value(int32_t(i))});
  t->BulkLoad(rows);
  Transaction txn = db.Begin();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(t->Insert(txn, Row{Value(int32_t(100 + i))}).ok());
  }
  db.Commit(&txn);
  EXPECT_FALSE(db.MaybeMerge("t"));  // 4 < 0.5 * 10
  Transaction txn2 = db.Begin();
  ASSERT_TRUE(t->Insert(txn2, Row{Value(int32_t{200})}).ok());
  db.Commit(&txn2);
  EXPECT_TRUE(db.MaybeMerge("t"));  // 5 >= 0.5 * 10
  EXPECT_EQ(t->main_row_count(), 15u);
  EXPECT_EQ(t->delta_row_count(), 0u);
}

TEST(GlobalAdvisorTest, JointBudgetFlowsToHotTable) {
  auto db = MakeTpccDatabase();
  Transaction txn = db->Begin();
  // Only ORDERLINE gets load; ITEM is never queried.
  for (int i = 0; i < 50; ++i) {
    db->Execute(txn, "orderline", DeliveryQuery(1 + i % 2, 1 + i % 3,
                                                1 + i % 20));
  }
  GlobalAdvisor advisor(ScanCostParams{1.0, 100.0});
  GlobalRecommendation rec = advisor.RecommendRelative(db.get(), 0.3);
  ASSERT_EQ(rec.placements.size(), 2u);
  double item_dram = 0, orderline_dram = 0;
  for (const TablePlacement& p : rec.placements) {
    if (p.table == "item") item_dram = p.dram_bytes;
    if (p.table == "orderline") orderline_dram = p.dram_bytes;
  }
  // The unqueried table gets nothing; the hot table gets the budget.
  EXPECT_EQ(item_dram, 0.0);
  EXPECT_GT(orderline_dram, 0.0);
}

TEST(GlobalAdvisorTest, ApplyEvictsAcrossTables) {
  auto db = MakeTpccDatabase();
  Transaction txn = db->Begin();
  for (int i = 0; i < 20; ++i) {
    db->Execute(txn, "orderline", DeliveryQuery(1, 1, 1 + i % 20));
    Query price_scan;
    price_scan.predicates.push_back(
        Predicate::Between(kIPrice, Value(10.0), Value(20.0)));
    db->Execute(txn, "item", price_scan);
  }
  GlobalAdvisor advisor(ScanCostParams{1.0, 100.0});
  auto moved = advisor.Apply(db.get(), /*budget=*/1.0);  // ~nothing fits
  ASSERT_TRUE(moved.ok());
  EXPECT_GT(*moved, 0u);
  EXPECT_NE(db->GetTable("orderline")->sscg(), nullptr);
  EXPECT_NE(db->GetTable("item")->sscg(), nullptr);
  // Queries still work on both tables.
  Transaction txn2 = db->Begin();
  EXPECT_FALSE(
      db->Execute(txn2, "orderline", DeliveryQuery(1, 1, 5)).positions
          .empty());
}

}  // namespace
}  // namespace hytap
