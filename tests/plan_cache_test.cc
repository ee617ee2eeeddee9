#include "query/plan_cache.h"

#include <gtest/gtest.h>

namespace hytap {
namespace {

Schema TestSchema() {
  Schema schema;
  schema.push_back({"a", DataType::kInt32, 0});
  schema.push_back({"b", DataType::kInt32, 0});
  schema.push_back({"c", DataType::kInt32, 0});
  return schema;
}

Query MakeQuery(std::vector<ColumnId> cols) {
  Query q;
  for (ColumnId c : cols) {
    q.predicates.push_back(Predicate::Equals(c, Value(int32_t{1})));
  }
  return q;
}

class PlanCacheTest : public ::testing::Test {
 protected:
  PlanCacheTest() : table_("t", TestSchema(), &txns_) {
    std::vector<Row> rows;
    for (int r = 0; r < 100; ++r) {
      rows.push_back(Row{Value(int32_t(r)), Value(int32_t(r % 5)),
                         Value(int32_t(r % 10))});
    }
    table_.BulkLoad(rows);
  }
  TransactionManager txns_;
  Table table_;
};

TEST_F(PlanCacheTest, CountsTemplates) {
  PlanCache cache;
  cache.Record(MakeQuery({0, 1}));
  cache.Record(MakeQuery({1, 0}));  // same template, different order
  cache.Record(MakeQuery({2}));
  EXPECT_EQ(cache.template_count(), 2u);
  EXPECT_EQ(cache.total_executions(), 3u);
}

TEST_F(PlanCacheTest, DuplicatePredicateColumnsDeduplicated) {
  PlanCache cache;
  Query q = MakeQuery({1, 1, 2});
  cache.Record(q);
  cache.Record(MakeQuery({1, 2}));
  EXPECT_EQ(cache.template_count(), 1u);
}

TEST_F(PlanCacheTest, ColumnFrequencies) {
  PlanCache cache;
  cache.Record(MakeQuery({0, 1}));
  cache.Record(MakeQuery({0, 1}));
  cache.Record(MakeQuery({1}));
  auto g = cache.ToWorkload(table_).ColumnFrequencies();
  EXPECT_DOUBLE_EQ(g[0], 2.0);
  EXPECT_DOUBLE_EQ(g[1], 3.0);
  EXPECT_DOUBLE_EQ(g[2], 0.0);
}

TEST_F(PlanCacheTest, ToWorkloadUsesTableStatistics) {
  PlanCache cache;
  cache.Record(MakeQuery({0, 2}));
  cache.Record(MakeQuery({0, 2}));
  cache.Record(MakeQuery({1}));
  Workload workload = cache.ToWorkload(table_);
  ASSERT_EQ(workload.column_count(), 3u);
  EXPECT_EQ(workload.query_count(), 2u);
  // a_i from the table's MRC sizes.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(workload.column_sizes[i],
                     double(table_.ColumnDramBytes(i)));
  }
  // s_i = 1/distinct.
  EXPECT_NEAR(workload.selectivities[0], 1.0 / 100.0, 1e-12);
  EXPECT_NEAR(workload.selectivities[1], 1.0 / 5.0, 1e-12);
  // Frequencies carried through.
  double freq_02 = 0, freq_1 = 0;
  for (const auto& q : workload.queries) {
    if (q.columns.size() == 2) freq_02 = q.frequency;
    if (q.columns.size() == 1) freq_1 = q.frequency;
  }
  EXPECT_DOUBLE_EQ(freq_02, 2.0);
  EXPECT_DOUBLE_EQ(freq_1, 1.0);
}

QueryObservation ObservedScan(ColumnId column, uint64_t candidates_in,
                              uint64_t candidates_out) {
  QueryObservation obs;
  obs.filtered_columns = {column};
  StepObservation step;
  step.column = column;
  step.kind = StepKind::kScan;
  step.candidates_in = candidates_in;
  step.observed_selectivity =
      candidates_in == 0 ? 0.0 : double(candidates_out) / double(candidates_in);
  obs.steps.push_back(step);
  return obs;
}

TEST_F(PlanCacheTest, ObservedSelectivitiesOverrideTableStatistics) {
  PlanCache cache;
  const Query q = MakeQuery({1});
  cache.RecordObserved(q, ObservedScan(1, 100, 7));
  cache.RecordObserved(q, ObservedScan(1, 100, 9));
  EXPECT_EQ(cache.total_executions(), 2u);
  EXPECT_EQ(cache.template_count(), 1u);

  Workload workload = cache.ToWorkload(table_);
  // Column 1: sample mean of {0.07, 0.09}, not the 1/distinct = 0.2
  // statistic estimate.
  EXPECT_NEAR(workload.selectivities[1], 0.08, 1e-12);
  // Columns without observations keep the statistics fallback.
  EXPECT_NEAR(workload.selectivities[0], 1.0 / 100.0, 1e-12);
  EXPECT_NEAR(workload.selectivities[2], 1.0 / 10.0, 1e-12);
}

TEST_F(PlanCacheTest, ObservedStepsMapToTemplateSlots) {
  PlanCache cache;
  // Template {0, 2}, but only column 2 produced an observable step (e.g.
  // the other predicate ran through a composite index).
  Query q = MakeQuery({2, 0});
  QueryObservation obs = ObservedScan(2, 200, 10);
  obs.filtered_columns = {0, 2};
  // A zero-candidate step must not contribute a sample.
  StepObservation empty;
  empty.column = 0;
  empty.kind = StepKind::kProbe;
  empty.candidates_in = 0;
  obs.steps.push_back(empty);
  cache.RecordObserved(q, obs);

  Workload workload = cache.ToWorkload(table_);
  EXPECT_NEAR(workload.selectivities[2], 0.05, 1e-12);
  EXPECT_NEAR(workload.selectivities[0], 1.0 / 100.0, 1e-12);  // fallback
  // Mixed Record/RecordObserved executions accumulate in one template; the
  // count-only Record adds no selectivity sample to either slot.
  cache.Record(MakeQuery({0, 2}));
  EXPECT_EQ(cache.template_count(), 1u);
  EXPECT_EQ(cache.total_executions(), 2u);
  workload = cache.ToWorkload(table_);
  ASSERT_EQ(workload.queries.size(), 1u);
  EXPECT_EQ(workload.queries[0].columns, (std::vector<ColumnId>{0, 2}));
  EXPECT_EQ(workload.queries[0].frequency, 2.0);
  EXPECT_NEAR(workload.selectivities[2], 0.05, 1e-12);
  EXPECT_NEAR(workload.selectivities[0], 1.0 / 100.0, 1e-12);  // fallback
}

TEST_F(PlanCacheTest, ClearResets) {
  PlanCache cache;
  cache.Record(MakeQuery({0}));
  cache.Clear();
  EXPECT_EQ(cache.template_count(), 0u);
  EXPECT_EQ(cache.total_executions(), 0u);
}

}  // namespace
}  // namespace hytap
