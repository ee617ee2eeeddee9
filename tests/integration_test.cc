// End-to-end pipeline tests: load -> workload -> advisor -> migrate ->
// verify that (i) results never change and (ii) the modeled scan cost drops
// the way the selection model predicts.

#include <gtest/gtest.h>

#include "core/advisor.h"
#include "core/migrator.h"
#include "core/tiered_table.h"
#include "workload/tpcc.h"

namespace hytap {
namespace {

std::unique_ptr<TieredTable> MakeTable(DeviceKind device) {
  OrderlineParams params;
  params.warehouses = 3;
  params.districts_per_warehouse = 4;
  params.orders_per_district = 40;
  TieredTableOptions options;
  options.device = device;
  auto table = std::make_unique<TieredTable>("orderline", OrderlineSchema(),
                                             options);
  table->Load(GenerateOrderlineRows(params));
  return table;
}

void RunMixedWorkload(TieredTable* table, int rounds) {
  Transaction txn = table->Begin();
  for (int i = 0; i < rounds; ++i) {
    table->Execute(txn, DeliveryQuery(1 + i % 3, 1 + i % 4, 1 + i % 40));
    if (i % 10 == 0) {
      table->Execute(txn, ChQuery19(1 + i % 3, 1, 400, 1, 3));
    }
  }
}

TEST(IntegrationTest, AdvisorDropsModeledCostMonotonically) {
  auto table = MakeTable(DeviceKind::kXpoint);
  RunMixedWorkload(table.get(), 60);
  Advisor advisor;
  double previous_cost = -1.0;
  for (double w : {0.1, 0.3, 0.6, 0.9}) {
    Recommendation rec = advisor.RecommendRelative(*table, w);
    if (previous_cost >= 0.0) {
      EXPECT_LE(rec.selection.scan_cost, previous_cost + 1e-6)
          << "more budget must not increase modeled cost (w=" << w << ")";
    }
    previous_cost = rec.selection.scan_cost;
  }
}

TEST(IntegrationTest, FullPipelineKeepsResultsStable) {
  auto table = MakeTable(DeviceKind::kCssd);
  RunMixedWorkload(table.get(), 40);
  Transaction txn = table->Begin();
  Query probe_query = DeliveryQuery(2, 3, 17);
  Query range_query = ChQuery19(1, 1, 400, 1, 3);
  const auto probe_before = table->Execute(txn, probe_query);
  const auto range_before = table->Execute(txn, range_query);

  Advisor advisor;
  Migrator migrator;
  Recommendation rec = advisor.RecommendRelative(*table, 0.25);
  auto report = migrator.Apply(table.get(),
                               std::vector<bool>(rec.in_dram.begin(),
                                                 rec.in_dram.end()));
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->applied);
  EXPECT_GT(report->moved_bytes, 0u);

  const auto probe_after = table->Execute(txn, probe_query);
  const auto range_after = table->Execute(txn, range_query);
  EXPECT_EQ(probe_before.positions, probe_after.positions);
  EXPECT_EQ(range_before.positions, range_after.positions);
  ASSERT_EQ(range_before.rows.size(), range_after.rows.size());
  for (size_t i = 0; i < range_before.rows.size(); ++i) {
    EXPECT_EQ(range_before.rows[i], range_after.rows[i]);
  }
}

TEST(IntegrationTest, InsertsQueriesMergeSurvivePlacement) {
  auto table = MakeTable(DeviceKind::kXpoint);
  RunMixedWorkload(table.get(), 30);
  Advisor advisor;
  ASSERT_TRUE(advisor.Apply(table.get(), /*budget=*/1.0).ok());
  // Writers keep inserting while the table is tiered.
  for (int batch = 0; batch < 3; ++batch) {
    Transaction writer = table->Begin();
    for (int i = 0; i < 10; ++i) {
      Row row{Value(int32_t(9000 + batch * 10 + i)), Value(int32_t{1}),
              Value(int32_t{1}),    Value(int32_t{1}), Value(int32_t{1}),
              Value(int32_t{1}),    Value(int64_t{0}), Value(int32_t{5}),
              Value(1.5),           Value(std::string("x"))};
      ASSERT_TRUE(table->Insert(writer, row).ok());
    }
    table->Commit(&writer);
    table->MergeDelta();
  }
  Transaction reader = table->Begin();
  Query q;
  q.predicates.push_back(
      Predicate::AtLeast(kOlOId, Value(int32_t{9000})));
  q.aggregates = {Aggregate::Count(), Aggregate::Sum(kOlAmount)};
  QueryResult result = table->Execute(reader, q);
  EXPECT_EQ(result.aggregate_values[0], Value(int64_t{30}));
  EXPECT_DOUBLE_EQ(result.aggregate_values[1].AsDouble(), 45.0);
}

}  // namespace
}  // namespace hytap
