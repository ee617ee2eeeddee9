#include <gtest/gtest.h>

#include "core/advisor.h"
#include "core/migrator.h"
#include "workload/tpcc.h"

namespace hytap {
namespace {

std::unique_ptr<TieredTable> MakeOrderline() {
  OrderlineParams params;
  params.warehouses = 2;
  params.districts_per_warehouse = 2;
  params.orders_per_district = 20;
  auto table = std::make_unique<TieredTable>("orderline", OrderlineSchema(),
                                             TieredTableOptions{});
  table->Load(GenerateOrderlineRows(params));
  return table;
}

void RunTpccWorkload(TieredTable* table) {
  Transaction txn = table->Begin();
  for (int i = 0; i < 50; ++i) {
    table->Execute(txn, DeliveryQuery(1 + i % 2, 1 + i % 2, 1 + i % 20));
  }
  table->Execute(txn, ChQuery19(1, 1, 500, 1, 5));
}

TEST(AdvisorTest, TightBudgetKeepsPrimaryKeyColumns) {
  // Paper §IV-A: at w = 0.2 the model keeps the four primary-key attributes
  // as MRCs and evicts the rest into an SSCG.
  auto table = MakeOrderline();
  RunTpccWorkload(table.get());
  Advisor advisor;
  Recommendation rec = advisor.RecommendRelative(*table, 0.2);
  for (ColumnId c : OrderlinePrimaryKey()) {
    if (c == kOlNumber) continue;  // ol_number is not filtered by this mix
    EXPECT_TRUE(rec.in_dram[c]) << "pk column " << c << " evicted";
  }
  EXPECT_FALSE(rec.in_dram[kOlDistInfo]);
  EXPECT_FALSE(rec.in_dram[kOlAmount]);
  EXPECT_FALSE(rec.in_dram[kOlDeliveryD]);
}

TEST(AdvisorTest, LargerBudgetAddsAnalyticalColumns) {
  auto table = MakeOrderline();
  RunTpccWorkload(table.get());
  Advisor advisor;
  Recommendation tight = advisor.RecommendRelative(*table, 0.2);
  Recommendation roomy = advisor.RecommendRelative(*table, 0.9);
  // Nested allocations: more budget never evicts a kept column.
  for (ColumnId c = 0; c < 10; ++c) {
    EXPECT_LE(tight.in_dram[c], roomy.in_dram[c]) << c;
  }
  // The CH-19 filter column becomes DRAM-resident with enough budget.
  EXPECT_TRUE(roomy.in_dram[kOlQuantity]);
}

TEST(AdvisorTest, PinningOverridesModel) {
  auto table = MakeOrderline();
  RunTpccWorkload(table.get());
  AdvisorOptions options;
  options.pinned_columns = {kOlDistInfo};  // never filtered, still pinned
  Advisor advisor(options);
  Recommendation rec = advisor.RecommendRelative(*table, 0.5);
  EXPECT_TRUE(rec.in_dram[kOlDistInfo]);
}

TEST(AdvisorTest, AlgorithmsAgreeOnCosts) {
  auto table = MakeOrderline();
  RunTpccWorkload(table.get());
  Recommendation a = Advisor().RecommendRelative(*table, 0.4);
  // The integer optimum of the same workload snapshot at the same budget.
  double total = 0.0;
  for (ColumnId c = 0; c < table->table().column_count(); ++c) {
    total += double(table->table().ColumnDramBytes(c));
  }
  SelectionProblem problem;
  problem.workload = &a.workload;
  problem.params = a.params_used;
  problem.budget_bytes = 0.4 * total;
  const SelectionResult b = SelectIntegerOptimal(problem);
  ASSERT_TRUE(b.optimal);
  // Explicit is within a few percent of optimal on this workload.
  EXPECT_LE(a.selection.scan_cost, 1.1 * b.scan_cost);
}

TEST(AdvisorTest, ApplyChangesPlacement) {
  auto table = MakeOrderline();
  RunTpccWorkload(table.get());
  Advisor advisor;
  double total = 0;
  for (ColumnId c = 0; c < 10; ++c) {
    total += double(table->table().ColumnDramBytes(c));
  }
  auto moved = advisor.Apply(table.get(), 0.3 * total);
  ASSERT_TRUE(moved.ok());
  EXPECT_GT(*moved, 0u);
  EXPECT_NE(table->table().sscg(), nullptr);
  EXPECT_LE(double(table->table().MainDramBytes()), 0.3 * total + 1.0);
}

TEST(MigratorTest, EstimateCountsMovedColumns) {
  auto table = MakeOrderline();
  std::vector<bool> placement(10, true);
  placement[kOlDistInfo] = false;
  placement[kOlAmount] = false;
  Migrator migrator;
  MigrationReport estimate = migrator.Estimate(*table, placement);
  EXPECT_EQ(estimate.evicted_columns, 2u);
  EXPECT_EQ(estimate.loaded_columns, 0u);
  EXPECT_GT(estimate.moved_bytes, 0u);
  EXPECT_GT(estimate.duration_ns, 0u);
  EXPECT_FALSE(estimate.applied);
}

TEST(MigratorTest, ApplyWithinWindow) {
  auto table = MakeOrderline();
  std::vector<bool> placement(10, true);
  placement[kOlDistInfo] = false;
  Migrator migrator;  // unbounded window
  auto report = migrator.Apply(table.get(), placement);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->applied);
  EXPECT_EQ(table->table().location(kOlDistInfo),
            ColumnLocation::kSecondary);
}

TEST(MigratorTest, RefusesMovesBeyondWindow) {
  auto table = MakeOrderline();
  std::vector<bool> placement(10, false);  // evict everything: big move
  Migrator migrator(/*max_window_ns=*/1);  // 1 ns window
  auto report = migrator.Apply(table.get(), placement);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->applied);
  // Placement unchanged.
  EXPECT_EQ(table->table().location(kOlOId), ColumnLocation::kDram);
}

TEST(MigratorTest, NoopMigrationIsFree) {
  auto table = MakeOrderline();
  Migrator migrator;
  MigrationReport estimate =
      migrator.Estimate(*table, std::vector<bool>(10, true));
  EXPECT_EQ(estimate.moved_bytes, 0u);
  EXPECT_EQ(estimate.evicted_columns + estimate.loaded_columns, 0u);
}

TEST(MigratorTest, ApplyStepFlipsExactlyOneColumn) {
  auto table = MakeOrderline();
  Migrator migrator;
  auto report = migrator.ApplyStep(table.get(), kOlDistInfo,
                                   /*to_dram=*/false);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->applied);
  EXPECT_EQ(report->evicted_columns, 1u);
  EXPECT_EQ(report->loaded_columns, 0u);
  EXPECT_EQ(table->table().location(kOlDistInfo), ColumnLocation::kSecondary);
  for (ColumnId c = 0; c < 10; ++c) {
    if (c == kOlDistInfo) continue;
    EXPECT_EQ(table->table().location(c), ColumnLocation::kDram) << c;
  }
  // And back: the step API loads as well as evicts.
  report = migrator.ApplyStep(table.get(), kOlDistInfo, /*to_dram=*/true);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->loaded_columns, 1u);
  EXPECT_EQ(table->table().location(kOlDistInfo), ColumnLocation::kDram);
}

TEST(MigratorTest, CalibratedEstimateUsesFittedBandwidth) {
  auto table = MakeOrderline();
  // Evict half of the schema and run the workload so the calibrator
  // accumulates secondary-tier bytes/ns samples.
  std::vector<bool> placement(10, true);
  for (ColumnId c = 5; c < 10; ++c) placement[c] = false;
  Migrator migrator;
  ASSERT_TRUE(migrator.Apply(table.get(), placement).ok());
  RunTpccWorkload(table.get());
  ASSERT_GT(table->calibrator().secondary().samples, 0u);

  // Estimate loading everything back, uncalibrated vs calibrated.
  const std::vector<bool> all_dram(10, true);
  const MigrationReport reference = migrator.Estimate(*table, all_dram);
  migrator.set_calibration(&table->calibrator(), /*use=*/true);
  const MigrationReport calibrated = migrator.Estimate(*table, all_dram);
  EXPECT_EQ(calibrated.moved_bytes, reference.moved_bytes);
  const double fitted_c_ss = table->calibrator().Fitted().c_ss;
  EXPECT_DOUBLE_EQ(migrator.MoveNsPerByte(*table), fitted_c_ss);
  EXPECT_NEAR(double(calibrated.duration_ns),
              double(calibrated.moved_bytes) * fitted_c_ss, 1.0);

  // Detaching falls back to the device model.
  migrator.set_calibration(nullptr, false);
  EXPECT_EQ(migrator.Estimate(*table, all_dram).duration_ns,
            reference.duration_ns);
}

}  // namespace
}  // namespace hytap
