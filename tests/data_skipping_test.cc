// Data-skipping layer: zone maps on MRC code vectors, SSCG slot synopses,
// the candidate-restricted rescan — and the property the whole layer hangs
// on: results are bit-identical with skipping on or off, at any thread
// count, with or without injected faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "common/random.h"
#include "query/executor.h"
#include "query/scan.h"
#include "storage/bit_packed_vector.h"
#include "storage/dictionary_column.h"
#include "storage/sscg.h"
#include "storage/table.h"
#include "storage/zone_map.h"

namespace hytap {
namespace {

/// Restores the default (enabled) on scope exit so test order can't leak a
/// disabled knob into unrelated tests.
class ZoneMapsGuard {
 public:
  explicit ZoneMapsGuard(bool enabled) { SetZoneMapsEnabled(enabled); }
  ~ZoneMapsGuard() { SetZoneMapsEnabled(true); }
};

TEST(ZoneMapTest, TracksPerZoneBounds) {
  ZoneMap map;
  map.Update(0, 5);
  map.Update(1, 9);
  map.Update(kZoneMapRows, 100);  // second zone
  ASSERT_EQ(map.zone_count(), 2u);
  EXPECT_EQ(map.zone_min(0), 5u);
  EXPECT_EQ(map.zone_max(0), 9u);
  EXPECT_EQ(map.zone_min(1), 100u);
  EXPECT_EQ(map.zone_max(1), 100u);
}

TEST(ZoneMapTest, PrunesDisjointCodeIntervals) {
  ZoneMap map;
  map.Update(0, 10);
  map.Update(1, 20);
  // Half-open code intervals.
  EXPECT_TRUE(map.Prunes(0, 2, 0, 10));    // below the zone
  EXPECT_TRUE(map.Prunes(0, 2, 21, 30));   // above the zone
  EXPECT_FALSE(map.Prunes(0, 2, 10, 11));  // touches min
  EXPECT_FALSE(map.Prunes(0, 2, 20, 21));  // touches max
  EXPECT_FALSE(map.Prunes(0, 2, 0, 100));  // covers the zone
  EXPECT_TRUE(map.Prunes(0, 0, 0, 100));   // empty row range
  EXPECT_TRUE(map.Prunes(0, 2, 15, 15));   // empty code interval
}

TEST(ZoneMapTest, SetOnlyWidensBounds) {
  BitPackedVector codes(8);
  codes.Append(50);
  codes.Append(60);
  codes.Set(0, 10);  // overwrite: bounds must still cover the old value
  const ZoneMap& map = codes.zone_map();
  EXPECT_EQ(map.zone_min(0), 10u);
  EXPECT_EQ(map.zone_max(0), 60u);
  // Conservative: [50, 51) no longer occurs but is still "may contain".
  EXPECT_FALSE(map.Prunes(0, 2, 50, 51));
}

TEST(DataSkippingTest, DictionaryDomainShortCircuit) {
  auto column = DictionaryColumn<int32_t>::Build({10, 20, 30, 20, 10});
  const Value lo(int32_t{11}), hi(int32_t{19});  // between adjacent values
  PositionList out;
  column->ScanBetween(&lo, &hi, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(column->CanSkipRange(&lo, &hi, 0, column->size()));
  const Value lo2(int32_t{40}), hi2(int32_t{50});  // outside the domain
  column->ScanBetween(&lo2, &hi2, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(column->CanSkipRange(&lo2, &hi2, 0, column->size()));
  // A matching predicate neither short-circuits nor prunes.
  const Value lo3(int32_t{20}), hi3(int32_t{20});
  EXPECT_FALSE(column->CanSkipRange(&lo3, &hi3, 0, column->size()));
  column->ScanBetween(&lo3, &hi3, &out);
  EXPECT_EQ(out, (PositionList{1, 3}));
}

TEST(DataSkippingTest, MrcScanIdenticalOnOffAcrossThreads) {
  // Four full zones of clustered data: only the first zone can match.
  const size_t rows = 4 * kZoneMapRows;
  std::vector<int32_t> values;
  values.reserve(rows);
  for (size_t r = 0; r < rows; ++r) values.push_back(int32_t(r / 100));
  auto column = DictionaryColumn<int32_t>::Build(values);
  const Value lo(int32_t{0}), hi(int32_t{9});

  PositionList reference;
  IoStats off_io;
  {
    ZoneMapsGuard off(false);
    ParallelScanColumn(*column, &lo, &hi, 1, &reference, &off_io);
  }
  EXPECT_EQ(reference.size(), 1000u);
  EXPECT_EQ(off_io.morsels_pruned, 0u);

  ZoneMapsGuard on(true);
  for (uint32_t threads : {1u, 2u, 4u}) {
    PositionList out;
    IoStats io;
    ParallelScanColumn(*column, &lo, &hi, threads, &out, &io);
    EXPECT_EQ(out, reference) << threads << " threads";
    EXPECT_EQ(io.morsels_pruned, 3u) << threads << " threads";
  }
}

Schema GroupSchema(size_t width) {
  Schema schema;
  for (size_t c = 0; c < width; ++c) {
    schema.push_back({"c" + std::to_string(c), DataType::kInt32, 0});
  }
  return schema;
}

/// Clustered rows: every page covers a disjoint value span, so a narrow
/// range predicate makes almost every page synopsis-prunable.
std::vector<Row> ClusteredRows(size_t rows, size_t width) {
  std::vector<Row> data;
  data.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    for (size_t c = 0; c < width; ++c) row.emplace_back(int32_t(r));
    data.push_back(std::move(row));
  }
  return data;
}

TEST(DataSkippingTest, SscgSynopsisPrunesPages) {
  // A narrow range over a clustered group, every page but the range's
  // pruned. The second instance is the >= 5x page_reads gate: 0.1 % of
  // 50 000 rows at rows/2, a 10-column CSSD group, 16 frames, 4 threads.
  struct Instance {
    size_t rows;
    size_t width;
    DeviceKind device;
    size_t frames;
    int32_t lo;
    int32_t span;
    uint32_t threads;
  };
  for (const Instance& instance :
       {Instance{20000, 8, DeviceKind::kXpoint, 8, 5000, 20, 1},
        Instance{50000, 10, DeviceKind::kCssd, 16, 25000, 50, 4}}) {
    SCOPED_TRACE(instance.rows);
    SecondaryStore store(instance.device);
    std::vector<ColumnId> members(instance.width);
    std::iota(members.begin(), members.end(), ColumnId{0});
    Sscg sscg(RowLayout(GroupSchema(instance.width), members),
              ClusteredRows(instance.rows, instance.width), &store);
    BufferManager buffers(&store, instance.frames);
    const Value lo(instance.lo), hi(int32_t(instance.lo + instance.span - 1));

    PositionList off_out;
    IoStats off_io;
    {
      ZoneMapsGuard off(false);
      buffers.Clear();
      ASSERT_TRUE(sscg.ScanSlot(0, &lo, &hi, &buffers, instance.threads,
                                &off_out, &off_io)
                      .ok());
    }
    EXPECT_EQ(off_out.size(), size_t(instance.span));
    EXPECT_EQ(off_io.page_reads + off_io.cache_hits, sscg.page_count());
    EXPECT_EQ(off_io.pages_pruned, 0u);

    ZoneMapsGuard on(true);
    PositionList on_out;
    IoStats on_io;
    buffers.Clear();
    ASSERT_TRUE(sscg.ScanSlot(0, &lo, &hi, &buffers, instance.threads,
                              &on_out, &on_io)
                    .ok());
    EXPECT_EQ(on_out, off_out);
    // The range's consecutive values span at most two pages; everything
    // else prunes.
    EXPECT_LE(on_io.page_reads + on_io.cache_hits, 2u);
    EXPECT_EQ(on_io.pages_pruned,
              sscg.page_count() - (on_io.page_reads + on_io.cache_hits));
    EXPECT_GE(on_io.pages_pruned, sscg.page_count() - 2);
    EXPECT_LE(on_io.page_reads * 5, off_io.page_reads);
  }
}

TEST(DataSkippingTest, StringSlotsNeverPrune) {
  Schema schema;
  schema.push_back({"k", DataType::kInt32, 0});
  schema.push_back({"s", DataType::kString, 8});
  std::vector<Row> data;
  for (size_t r = 0; r < 2000; ++r) {
    data.push_back(Row{Value(int32_t(r)), Value(std::string("v") +
                                                std::to_string(r % 7))});
  }
  SecondaryStore store(DeviceKind::kXpoint);
  Sscg sscg(RowLayout(schema, {0, 1}), data, &store);
  BufferManager buffers(&store, 8);
  const Value lo(std::string("v3")), hi(std::string("v3"));
  PositionList out;
  IoStats io;
  ZoneMapsGuard on(true);
  ASSERT_TRUE(sscg.ScanSlot(1, &lo, &hi, &buffers, 1, &out, &io).ok());
  EXPECT_EQ(io.pages_pruned, 0u);
  EXPECT_EQ(io.page_reads + io.cache_hits, sscg.page_count());
  size_t expected = 0;
  for (size_t r = 0; r < 2000; ++r) expected += (r % 7 == 3);
  EXPECT_EQ(out.size(), expected);
}

TEST(DataSkippingTest, ScanSlotPagesRestrictsRange) {
  const size_t rows = 20000;
  SecondaryStore store(DeviceKind::kXpoint);
  Sscg sscg(RowLayout(GroupSchema(8), {0, 1, 2, 3, 4, 5, 6, 7}),
            ClusteredRows(rows, 8), &store);
  BufferManager buffers(&store, 8);
  const size_t per_page = sscg.layout().rows_per_page();

  ZoneMapsGuard off(false);  // isolate the page-range restriction
  PositionList out;
  IoStats io;
  ASSERT_TRUE(sscg.ScanSlotPages(0, nullptr, nullptr, 2, 4, &buffers, 1,
                                 &out, &io)
                  .ok());
  ASSERT_EQ(out.size(), 2 * per_page);
  EXPECT_EQ(out.front(), 2 * per_page);   // first row of page 2
  EXPECT_EQ(out.back(), 4 * per_page - 1);  // last row of page 3
  EXPECT_EQ(io.page_reads + io.cache_hits, 2u);
}

// --- end-to-end property: the executor's positions, rows, aggregates and
// candidate trace are bit-identical with skipping on vs off, at 1/2/4
// threads, including under a seeded schedule of recoverable faults. ---

Schema TieredSchema() {
  Schema schema;
  schema.push_back({"id", DataType::kInt32, 0});  // DRAM, clustered
  for (size_t c = 1; c < 6; ++c) {
    schema.push_back({"p" + std::to_string(c), DataType::kInt32, 0});
  }
  return schema;
}

std::vector<Row> TieredRows(size_t rows) {
  std::vector<Row> data;
  Rng rng(11);
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    row.emplace_back(int32_t(r));
    for (size_t c = 1; c < 6; ++c) {
      row.emplace_back(int32_t(rng.NextBounded(100)));
    }
    data.push_back(std::move(row));
  }
  return data;
}

Query TieredQuery(size_t rows) {
  Query query;
  // 5% of the clustered DRAM ids, then a tiered range: well above the probe
  // threshold, so the executor takes the candidate-restricted rescan.
  query.predicates.push_back(Predicate::Between(
      0, Value(int32_t(rows / 2)), Value(int32_t(rows / 2 + rows / 20))));
  query.predicates.push_back(
      Predicate::Between(1, Value(int32_t{10}), Value(int32_t{59})));
  query.projections = {0, 2};
  query.aggregates = {Aggregate::Count(), Aggregate::Sum(3)};
  return query;
}

QueryResult RunTieredQuery(bool skipping, uint32_t threads,
                           const FaultConfig& faults) {
  ZoneMapsGuard guard(skipping);
  const size_t rows = 20000;
  TransactionManager txns;
  SecondaryStore store(DeviceKind::kXpoint, /*timing_seed=*/42, faults);
  BufferManager buffers(&store, 64);
  Table table("t", TieredSchema(), &txns, &store, &buffers);
  table.BulkLoad(TieredRows(rows));
  std::vector<bool> placement(TieredSchema().size(), false);
  placement[0] = true;
  EXPECT_TRUE(table.SetPlacement(placement).ok());
  QueryExecutor executor(&table);
  Transaction txn = txns.Begin();
  QueryResult result = executor.Execute(txn, TieredQuery(rows), threads);
  txns.Abort(&txn);
  return result;
}

void ExpectSameResult(const QueryResult& a, const QueryResult& b,
                      const char* what) {
  EXPECT_EQ(a.positions, b.positions) << what;
  EXPECT_EQ(a.rows, b.rows) << what;
  EXPECT_EQ(a.aggregate_values, b.aggregate_values) << what;
  EXPECT_EQ(a.candidate_trace, b.candidate_trace) << what;
}

TEST(DataSkippingTest, ExecutorBitIdenticalOnOffAcrossThreads) {
  const FaultConfig no_faults;
  const QueryResult reference = RunTieredQuery(false, 1, no_faults);
  ASSERT_TRUE(reference.status.ok());
  ASSERT_FALSE(reference.positions.empty());
  EXPECT_EQ(reference.io.pages_pruned, 0u);
  EXPECT_EQ(reference.io.morsels_pruned, 0u);

  for (uint32_t threads : {1u, 2u, 4u}) {
    const QueryResult off = RunTieredQuery(false, threads, no_faults);
    const QueryResult on = RunTieredQuery(true, threads, no_faults);
    ASSERT_TRUE(off.status.ok());
    ASSERT_TRUE(on.status.ok());
    ExpectSameResult(off, reference, "off vs serial reference");
    ExpectSameResult(on, reference, "on vs serial reference");
    // The candidate-restricted rescan must actually skip pages, and skipped
    // pages must leave the read counters.
    EXPECT_GT(on.io.pages_pruned, 0u);
    EXPECT_LT(on.io.page_reads, off.io.page_reads);
    // Skipping decisions are serial: counters are thread-count invariant.
    EXPECT_EQ(on.io.pages_pruned, RunTieredQuery(true, 1, no_faults)
                                      .io.pages_pruned);
  }
}

TEST(DataSkippingTest, ExecutorBitIdenticalUnderSeededFaults) {
  FaultConfig faults;
  faults.seed = 7;
  faults.read_error_rate = 0.05;       // transient: retry succeeds
  faults.read_corruption_rate = 0.02;  // in-transit: re-read is clean
  faults.latency_spike_rate = 0.05;
  const QueryResult reference = RunTieredQuery(false, 1, faults);
  ASSERT_TRUE(reference.status.ok());
  ASSERT_FALSE(reference.positions.empty());

  for (uint32_t threads : {1u, 2u, 4u}) {
    const QueryResult off = RunTieredQuery(false, threads, faults);
    const QueryResult on = RunTieredQuery(true, threads, faults);
    ASSERT_TRUE(off.status.ok());
    ASSERT_TRUE(on.status.ok());
    ExpectSameResult(off, reference, "faulted off vs serial reference");
    ExpectSameResult(on, reference, "faulted on vs serial reference");
    // Fault schedule and retry counts are a pure function of the page-access
    // sequence, which is serial and thread-count invariant at a fixed knob.
    EXPECT_EQ(off.io.retries, reference.io.retries);
    EXPECT_EQ(on.io.retries, RunTieredQuery(true, 1, faults).io.retries);
  }
}

}  // namespace
}  // namespace hytap
