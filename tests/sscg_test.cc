#include "storage/sscg.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace hytap {
namespace {

Schema TestSchema() {
  Schema schema;
  schema.push_back({"id", DataType::kInt32, 0});
  schema.push_back({"qty", DataType::kInt32, 0});
  schema.push_back({"amount", DataType::kDouble, 0});
  schema.push_back({"info", DataType::kString, 16});
  return schema;
}

std::vector<Row> TestRows(size_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    rows.push_back(Row{Value(int32_t(r)), Value(int32_t(r % 10)),
                       Value(double(r) * 0.5),
                       Value("info-" + std::to_string(r))});
  }
  return rows;
}

class SscgTest : public ::testing::Test {
 protected:
  SscgTest()
      : store_(DeviceKind::kXpoint), buffers_(&store_, 8) {}

  SecondaryStore store_;
  BufferManager buffers_;
};

TEST_F(SscgTest, BuildWritesPages) {
  RowLayout layout(TestSchema(), {0, 1, 2, 3});
  uint64_t write_ns = 0;
  Sscg sscg(layout, TestRows(1000), &store_, &write_ns);
  EXPECT_EQ(sscg.row_count(), 1000u);
  // Row width 32 bytes -> 128 rows per page -> 8 pages.
  EXPECT_EQ(sscg.page_count(), 8u);
  EXPECT_GT(write_ns, 0u);
  EXPECT_EQ(sscg.StorageBytes(), 8u * kPageSize);
}

TEST_F(SscgTest, ReconstructTupleMatches) {
  RowLayout layout(TestSchema(), {0, 1, 2, 3});
  const auto rows = TestRows(500);
  Sscg sscg(layout, rows, &store_);
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const RowId r = rng.NextBounded(500);
    IoStats io;
    Row got = *sscg.ReconstructTuple(r, &buffers_, 1, &io);
    ASSERT_EQ(got.size(), 4u);
    EXPECT_EQ(got, rows[r]);
  }
}

TEST_F(SscgTest, ReconstructionIsSinglePageRead) {
  // Paper §II-A: full-width tuple reconstruction = one 4 KB page access.
  RowLayout layout(TestSchema(), {0, 1, 2, 3});
  Sscg sscg(layout, TestRows(1000), &store_);
  IoStats io;
  sscg.ReconstructTuple(999, &buffers_, 1, &io);
  EXPECT_EQ(io.page_reads + io.cache_hits, 1u);
}

TEST_F(SscgTest, CacheHitsAreCheap) {
  RowLayout layout(TestSchema(), {0, 1, 2, 3});
  Sscg sscg(layout, TestRows(100), &store_);
  IoStats miss, hit;
  sscg.ReconstructTuple(0, &buffers_, 1, &miss);
  sscg.ReconstructTuple(1, &buffers_, 1, &hit);  // same page
  EXPECT_GT(miss.device_ns, 0u);
  EXPECT_EQ(hit.device_ns, 0u);
  EXPECT_EQ(hit.cache_hits, 1u);
  EXPECT_LT(hit.TotalNs(), miss.TotalNs());
}

TEST_F(SscgTest, ProbeValue) {
  RowLayout layout(TestSchema(), {1, 2});
  const auto rows = TestRows(300);
  Sscg sscg(layout, [&] {
        std::vector<Row> subset;
        for (const Row& r : rows) subset.push_back(Row{r[1], r[2]});
        return subset;
      }(), &store_);
  IoStats io;
  EXPECT_EQ(*sscg.ProbeValue(42, 0, &buffers_, 1, &io), Value(int32_t{2}));
  EXPECT_EQ(*sscg.ProbeValue(42, 1, &buffers_, 1, &io), Value(21.0));
}

TEST_F(SscgTest, ScanSlotFindsMatches) {
  RowLayout layout(TestSchema(), {0, 1});
  std::vector<Row> rows;
  for (size_t r = 0; r < 400; ++r) {
    rows.push_back(Row{Value(int32_t(r)), Value(int32_t(r % 10))});
  }
  Sscg sscg(layout, rows, &store_);
  PositionList out;
  IoStats io;
  Value v(int32_t{7});
  sscg.ScanSlot(1, &v, &v, &buffers_, 1, &out, &io);
  ASSERT_EQ(out.size(), 40u);
  for (size_t k = 0; k < out.size(); ++k) EXPECT_EQ(out[k], 7 + 10 * k);
  // A scan reads every page of the group.
  EXPECT_EQ(io.page_reads + io.cache_hits, sscg.page_count());
}

TEST_F(SscgTest, ScanCostScalesWithGroupWidth) {
  // Fig. 9a: scanning one attribute in a wide group reads the full rows.
  std::vector<Row> narrow_rows, wide_rows;
  Schema wide_schema;
  for (int c = 0; c < 20; ++c) {
    wide_schema.push_back({"c" + std::to_string(c), DataType::kInt32, 0});
  }
  std::vector<ColumnId> all20;
  for (ColumnId c = 0; c < 20; ++c) all20.push_back(c);
  for (size_t r = 0; r < 2000; ++r) {
    Row wide;
    for (int c = 0; c < 20; ++c) wide.emplace_back(int32_t(r));
    wide_rows.push_back(std::move(wide));
    narrow_rows.push_back(Row{Value(int32_t(r))});
  }
  Sscg narrow(RowLayout(wide_schema, {0}), narrow_rows, &store_);
  Sscg wide(RowLayout(wide_schema, all20), wide_rows, &store_);
  EXPECT_GE(wide.page_count(), narrow.page_count() * 15);
}

TEST_F(SscgTest, ProbeSlotSharesPageFetches) {
  RowLayout layout(TestSchema(), {0, 1});
  std::vector<Row> rows;
  for (size_t r = 0; r < 1000; ++r) {
    rows.push_back(Row{Value(int32_t(r)), Value(int32_t(r % 3))});
  }
  Sscg sscg(layout, rows, &store_);
  // Candidates all on the first page (rows 0..9, 512 rows/page for 8-byte
  // rows): only one miss expected.
  PositionList in{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  PositionList out;
  IoStats io;
  Value v(int32_t{0});
  sscg.ProbeSlot(1, &v, &v, in, &buffers_, 1, &out, &io);
  EXPECT_EQ(io.page_reads, 1u);
  EXPECT_EQ(out, (PositionList{0, 3, 6, 9}));
}

TEST_F(SscgTest, RawAccessMatchesTimedAccess) {
  RowLayout layout(TestSchema(), {0, 2});
  std::vector<Row> rows;
  for (size_t r = 0; r < 100; ++r) {
    rows.push_back(Row{Value(int32_t(r)), Value(double(r))});
  }
  Sscg sscg(layout, rows, &store_);
  const auto ids = std::get<std::vector<int32_t>>(sscg.DecodeSlot(0, store_));
  ASSERT_EQ(ids.size(), 100u);
  for (RowId r = 0; r < 100; r += 13) {
    EXPECT_EQ(ids[r], int32_t(r));
    EXPECT_EQ(sscg.RawRow(r, store_), rows[r]);
  }
  const std::vector<RowId> picked = {3, 40, 41, 99};
  const ColumnValues some = sscg.DecodeSlot(1, store_, &picked);
  EXPECT_EQ(std::get<std::vector<double>>(some),
            (std::vector<double>{3.0, 40.0, 41.0, 99.0}));
}

TEST_F(SscgTest, WallTimeDividesAcrossThreads) {
  IoStats io;
  io.device_ns = 8000;
  io.dram_ns = 0;
  EXPECT_EQ(io.WallNs(8), 1000u);
  EXPECT_EQ(io.WallNs(1), 8000u);
  EXPECT_EQ(io.WallNs(0), 8000u);  // guards division by zero
}

}  // namespace
}  // namespace hytap
