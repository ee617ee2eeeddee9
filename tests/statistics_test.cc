#include "query/statistics.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.h"
#include "query/executor.h"
#include "storage/dictionary_column.h"
#include "storage/table.h"

namespace hytap {
namespace {

std::vector<Value> UniformInts(int32_t lo, int32_t hi, size_t n,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<Value> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    values.emplace_back(int32_t(rng.NextInt(lo, hi)));
  }
  return values;
}

TEST(HistogramTest, EmptyAndStringInputs) {
  EXPECT_TRUE(Histogram::Build({}).empty());
  EXPECT_TRUE(Histogram::Build({Value("a"), Value("b")}).empty());
}

TEST(HistogramTest, SingleValueColumn) {
  std::vector<Value> values(100, Value(int32_t{7}));
  Histogram h = Histogram::Build(values, 16);
  ASSERT_FALSE(h.empty());
  EXPECT_EQ(h.bucket_count(), 1u);
  Value v(int32_t{7});
  EXPECT_NEAR(h.EstimateEqualitySelectivity(v), 1.0, 1e-9);
  EXPECT_NEAR(h.EstimateRangeSelectivity(&v, &v), 1.0, 1e-9);
  Value other(int32_t{8});
  EXPECT_DOUBLE_EQ(h.EstimateEqualitySelectivity(other), 0.0);
}

TEST(HistogramTest, UniformRangeEstimates) {
  Histogram h = Histogram::Build(UniformInts(0, 999, 20000, 3), 32);
  // [0, 499] covers ~half the rows.
  Value lo(int32_t{0}), mid(int32_t{499}), hi(int32_t{999});
  EXPECT_NEAR(h.EstimateRangeSelectivity(&lo, &mid), 0.5, 0.05);
  EXPECT_NEAR(h.EstimateRangeSelectivity(&lo, &hi), 1.0, 0.05);
  EXPECT_NEAR(h.EstimateRangeSelectivity(nullptr, nullptr), 1.0, 0.05);
  // Narrow range ~2.5%.
  Value a(int32_t{100}), b(int32_t{124});
  EXPECT_NEAR(h.EstimateRangeSelectivity(&a, &b), 0.025, 0.01);
  // Out-of-domain range.
  Value big(int32_t{5000}), bigger(int32_t{6000});
  EXPECT_NEAR(h.EstimateRangeSelectivity(&big, &bigger), 0.0, 1e-9);
  // Inverted range.
  EXPECT_DOUBLE_EQ(h.EstimateRangeSelectivity(&mid, &lo), 0.0);
}

TEST(HistogramTest, EqualityUsesPerBucketDistincts) {
  // 1000 distinct uniform values: equality ~0.1%.
  Histogram h = Histogram::Build(UniformInts(0, 999, 50000, 5), 32);
  Value v(int32_t{500});
  EXPECT_NEAR(h.EstimateEqualitySelectivity(v), 0.001, 0.0008);
}

TEST(HistogramTest, SkewedDataConcentratesMass) {
  // 90% of values are < 100, the rest spread to 1000.
  Rng rng(9);
  std::vector<Value> values;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBool(0.9)) {
      values.emplace_back(int32_t(rng.NextInt(0, 99)));
    } else {
      values.emplace_back(int32_t(rng.NextInt(100, 999)));
    }
  }
  Histogram h = Histogram::Build(values, 20);
  Value lo(int32_t{0}), hi(int32_t{99});
  EXPECT_NEAR(h.EstimateRangeSelectivity(&lo, &hi), 0.9, 0.1);
}

TEST(HistogramTest, DoublesSupported) {
  Rng rng(4);
  std::vector<Value> values;
  for (int i = 0; i < 5000; ++i) values.emplace_back(rng.NextDouble());
  Histogram h = Histogram::Build(values, 16);
  Value lo(0.25), hi(0.75);
  EXPECT_NEAR(h.EstimateRangeSelectivity(&lo, &hi), 0.5, 0.05);
}

TEST(TableStatisticsTest, BuildAndEstimate) {
  Schema schema;
  schema.push_back({"num", DataType::kInt32, 0});
  schema.push_back({"name", DataType::kString, 8});
  std::vector<std::vector<Value>> columns(2);
  for (int i = 0; i < 1000; ++i) {
    columns[0].emplace_back(int32_t(i % 100));
    columns[1].emplace_back("n" + std::to_string(i % 4));
  }
  TableStatistics stats = TableStatistics::Build(schema, columns);
  Value lo(int32_t{0}), hi(int32_t{49});
  EXPECT_NEAR(stats.EstimateSelectivity(0, &lo, &hi), 0.5, 0.08);
  // String equality: 1/distinct fallback.
  Value name("n1");
  EXPECT_NEAR(stats.EstimateSelectivity(1, &name, &name), 0.25, 1e-9);
}

TEST(TableStatisticsTest, ExecutorOrdersByActualRangeSelectivity) {
  // Column 0 has MANY distinct values (1/distinct tiny) but the predicate
  // covers almost its whole domain; column 1 has few distinct values but the
  // predicate picks one. Histogram statistics must order column 1 first.
  Schema schema;
  schema.push_back({"wide", DataType::kInt32, 0});
  schema.push_back({"narrow", DataType::kInt32, 0});
  TransactionManager txns;
  Table table("t", schema, &txns);
  std::vector<Row> rows;
  for (int r = 0; r < 2000; ++r) {
    rows.push_back(Row{Value(int32_t(r)), Value(int32_t(r % 4))});
  }
  table.BulkLoad(rows);
  QueryExecutor executor(&table);
  Query query;
  query.predicates.push_back(
      Predicate::Between(0, Value(int32_t{0}), Value(int32_t{1900})));
  query.predicates.push_back(Predicate::Equals(1, Value(int32_t{2})));
  // Without statistics: 1/distinct puts the wide column first (wrongly).
  auto naive_order = executor.PredicateOrder(query);
  EXPECT_EQ(query.predicates[naive_order[0]].column, 0u);
  // With histograms: the range on `wide` is ~95% selective, the equality on
  // `narrow` is 25% -> narrow first.
  table.BuildStatistics();
  auto informed_order = executor.PredicateOrder(query);
  EXPECT_EQ(query.predicates[informed_order[0]].column, 1u);
}

/// Histogram::FromDistinct over `values` (distinct values and counts taken
/// with a std::map) against the boxed Histogram::Build.
template <typename T>
void ExpectFromDistinctMatchesBuild(const std::vector<T>& values,
                                    size_t buckets) {
  std::map<T, uint64_t> counts;
  for (const T& v : values) ++counts[v];
  std::vector<T> distinct;
  std::vector<uint64_t> rows;
  for (const auto& [value, count] : counts) {
    distinct.push_back(value);
    rows.push_back(count);
  }
  std::vector<Value> boxed;
  for (const T& v : values) boxed.emplace_back(v);
  EXPECT_TRUE(Histogram::FromDistinct(distinct, rows, buckets) ==
              Histogram::Build(boxed, buckets));
}

TEST(HistogramTest, FromDistinctMatchesBoxedBuild) {
  Rng rng(5);
  std::vector<int32_t> ints;
  std::vector<float> floats;
  std::vector<double> doubles;
  for (int i = 0; i < 3000; ++i) {
    ints.push_back(int32_t(rng.NextInt(-500, 2000)));
    floats.push_back(float(rng.NextInt(-4000, 4000)) / 16.0f);
    doubles.push_back(rng.NextDouble(-1e6, 1e6));
  }
  // int64 values above 2^53 round to shared doubles: Build counts distinct
  // doubles per bucket, and so must FromDistinct.
  std::vector<int64_t> big;
  const int64_t base = int64_t{1} << 53;
  for (int64_t i = 0; i < 2000; ++i) {
    big.push_back(base + (i % 97) * 3 + (i % 5));
    big.push_back(-base - i);
  }
  for (size_t buckets : {1, 7, 32}) {
    ExpectFromDistinctMatchesBuild(ints, buckets);
    ExpectFromDistinctMatchesBuild(floats, buckets);
    ExpectFromDistinctMatchesBuild(doubles, buckets);
    ExpectFromDistinctMatchesBuild(big, buckets);
    ExpectFromDistinctMatchesBuild(std::vector<int32_t>(50, 9), buckets);
    ExpectFromDistinctMatchesBuild(std::vector<double>(), buckets);
  }
}

TEST(TableStatisticsTest, ColumnsFromDictionariesMatchBoxedBuild) {
  Schema schema;
  schema.push_back({"i32", DataType::kInt32, 0});
  schema.push_back({"i64", DataType::kInt64, 0});
  schema.push_back({"f32", DataType::kFloat, 0});
  schema.push_back({"f64", DataType::kDouble, 0});
  schema.push_back({"str", DataType::kString, 16});
  Rng rng(9);
  for (size_t rows : {0, 1, 2500}) {
    SCOPED_TRACE("rows " + std::to_string(rows));
    std::vector<std::vector<Value>> boxed(schema.size());
    std::vector<ColumnValues> typed = {
        std::vector<int32_t>(), std::vector<int64_t>(), std::vector<float>(),
        std::vector<double>(), std::vector<std::string>()};
    for (size_t r = 0; r < rows; ++r) {
      const int32_t i32 = int32_t(rng.NextInt(0, 300));
      const int64_t i64 = (int64_t{1} << 54) + int64_t(rng.NextBounded(1000));
      const float f32 = float(rng.NextInt(0, 999)) / 4.0f;
      const double f64 = rng.NextDouble(-5.0, 5.0);
      const std::string str = "s" + std::to_string(rng.NextBounded(37));
      boxed[0].emplace_back(i32);
      boxed[1].emplace_back(i64);
      boxed[2].emplace_back(f32);
      boxed[3].emplace_back(f64);
      boxed[4].emplace_back(str);
      std::get<0>(typed[0]).push_back(i32);
      std::get<1>(typed[1]).push_back(i64);
      std::get<2>(typed[2]).push_back(f32);
      std::get<3>(typed[3]).push_back(f64);
      std::get<4>(typed[4]).push_back(str);
    }
    std::vector<TableStatistics::Column> from_mrcs;
    for (const ColumnValues& values : typed) {
      from_mrcs.push_back(
          TableStatistics::BuildColumn(*BuildDictionaryColumn(values)));
    }
    const TableStatistics reference = TableStatistics::Build(schema, boxed);
    EXPECT_TRUE(TableStatistics(from_mrcs) == reference);
    // The string column keeps its 1/distinct equality estimate.
    std::set<std::string> distinct;
    for (const Value& v : boxed[4]) distinct.insert(v.AsString());
    const Value probe("s1");
    EXPECT_DOUBLE_EQ(
        reference.EstimateSelectivity(4, &probe, &probe),
        distinct.empty() ? 1.0 : 1.0 / double(distinct.size()));
  }
}

TEST(TableStatisticsTest, RefreshedOnMerge) {
  Schema schema;
  schema.push_back({"num", DataType::kInt32, 0});
  TransactionManager txns;
  Table table("t", schema, &txns);
  std::vector<Row> rows;
  for (int r = 0; r < 100; ++r) rows.push_back(Row{Value(int32_t(r))});
  table.BulkLoad(rows);
  table.BuildStatistics();
  ASSERT_NE(table.statistics(), nullptr);
  EXPECT_DOUBLE_EQ(table.statistics()->histogram(0).max(), 99.0);
  Transaction txn = txns.Begin();
  ASSERT_TRUE(table.Insert(txn, Row{Value(int32_t{500})}).ok());
  txns.Commit(&txn);
  table.MergeDelta();
  EXPECT_DOUBLE_EQ(table.statistics()->histogram(0).max(), 500.0);
}

}  // namespace
}  // namespace hytap
