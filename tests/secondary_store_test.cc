#include "tiering/secondary_store.h"

#include <gtest/gtest.h>

#include <cstring>

#include "storage/sscg.h"
#include "storage/table.h"

namespace hytap {
namespace {

TEST(SecondaryStoreTest, AllocateWriteRead) {
  SecondaryStore store(DeviceKind::kXpoint);
  const PageId a = store.AllocatePage();
  const PageId b = store.AllocatePage();
  EXPECT_NE(a, b);
  EXPECT_EQ(store.page_count(), 2u);
  SecondaryStore::Page page;
  page.fill(0xAB);
  store.WritePage(b, page);
  SecondaryStore::Page dest;
  ASSERT_TRUE(store.ReadPage(b, &dest, AccessPattern::kRandom).ok());
  EXPECT_EQ(0, std::memcmp(dest.data(), page.data(), kPageSize));
  // Page a stays zeroed.
  ASSERT_TRUE(store.ReadPage(a, &dest, AccessPattern::kRandom).ok());
  EXPECT_EQ(dest[0], 0);
}

TEST(SecondaryStoreTest, ReleasedPagesKeepTheirIds) {
  SecondaryStore store(DeviceKind::kXpoint);
  const PageId a = store.AllocatePage();
  const PageId b = store.AllocatePage();
  store.ReleasePage(a);
  EXPECT_EQ(store.page_count(), 2u);
  EXPECT_EQ(store.resident_page_count(), 1u);
  // Ids are never reused.
  EXPECT_EQ(store.AllocatePage(), b + 1);
  EXPECT_EQ(store.resident_page_count(), 2u);
  EXPECT_TRUE(store.VerifyPage(b).ok());
}

TEST(SecondaryStoreDeathTest, ReleasedPageCannotBeRead) {
  SecondaryStore store(DeviceKind::kXpoint);
  const PageId id = store.AllocatePage();
  store.ReleasePage(id);
  EXPECT_DEATH(store.RawPage(id), "released");
  SecondaryStore::Page dest;
  EXPECT_DEATH((void)store.ReadPage(id, &dest, AccessPattern::kRandom),
               "released");
}

TEST(SecondaryStoreTest, ReplacedGroupsReleaseTheirPages) {
  Schema schema;
  for (int c = 0; c < 8; ++c) {
    schema.push_back({"c" + std::to_string(c), DataType::kInt32, 0});
  }
  std::vector<Row> rows;
  for (int r = 0; r < 2000; ++r) {
    Row& row = rows.emplace_back();
    for (int c = 0; c < 8; ++c) row.emplace_back(int32_t((r * (c + 3)) % 101));
  }
  TransactionManager txns;
  SecondaryStore store(DeviceKind::kXpoint);
  BufferManager buffers(&store, 8);
  Table table("t", schema, &txns, &store, &buffers);
  table.BulkLoad(rows);
  auto live_pages = [&] {
    return table.sscg() == nullptr ? size_t{0} : table.sscg()->page_count();
  };
  std::vector<bool> placement = {true, true, true, true,
                                 false, false, false, false};
  ASSERT_TRUE(table.SetPlacement(placement).ok());
  // 100 one-column steps: only the live group's pages stay resident.
  for (int step = 0; step < 100; ++step) {
    const size_t c = size_t(step % 7) + 1;
    placement[c] = !placement[c];
    ASSERT_TRUE(table.SetPlacement(placement).ok());
    ASSERT_EQ(store.resident_page_count(), live_pages()) << "step " << step;
  }
  // Every step wrote a fresh group under fresh page ids.
  EXPECT_GT(store.page_count(), 100 + live_pages());
  // A merge replaces the group too.
  Transaction txn = txns.Begin();
  ASSERT_TRUE(table.Insert(txn, rows[5]).ok());
  txns.Commit(&txn);
  ASSERT_TRUE(table.MergeDelta().ok());
  EXPECT_GT(live_pages(), 0u);
  EXPECT_EQ(store.resident_page_count(), live_pages());
  // An aborted eviction releases both the old and the rejected group.
  FaultConfig corrupt;
  corrupt.seed = 3;
  corrupt.write_corruption_rate = 1.0;
  store.ConfigureFaults(corrupt);
  placement[1] = !placement[1];
  EXPECT_EQ(table.SetPlacement(placement).code(), StatusCode::kDataLoss);
  EXPECT_EQ(table.sscg(), nullptr);
  EXPECT_EQ(store.resident_page_count(), 0u);
}

TEST(SecondaryStoreTest, TimingAccrues) {
  SecondaryStore store(DeviceKind::kCssd);
  const PageId id = store.AllocatePage();
  SecondaryStore::Page dest;
  auto read = store.ReadPage(id, &dest, AccessPattern::kRandom);
  ASSERT_TRUE(read.ok());
  EXPECT_GT(read->latency_ns, 40'000u);  // NAND-scale latency
  EXPECT_EQ(read->retries, 0u);          // fault-free store never retries
  EXPECT_EQ(store.reads(), 1u);
  EXPECT_EQ(store.total_read_ns(), read->latency_ns);
  store.ResetStats();
  EXPECT_EQ(store.reads(), 0u);
}

TEST(SecondaryStoreTest, SequentialCheaperThanRandom) {
  SecondaryStore store(DeviceKind::kCssd);
  const PageId id = store.AllocatePage();
  SecondaryStore::Page dest;
  uint64_t seq = 0, rnd = 0;
  for (int i = 0; i < 50; ++i) {
    seq += store.ReadPage(id, &dest, AccessPattern::kSequential, 1)->latency_ns;
    rnd += store.ReadPage(id, &dest, AccessPattern::kRandom, 1)->latency_ns;
  }
  EXPECT_LT(seq, rnd);
}

TEST(SecondaryStoreTest, DeterministicTiming) {
  SecondaryStore a(DeviceKind::kEssd, /*timing_seed=*/7);
  SecondaryStore b(DeviceKind::kEssd, /*timing_seed=*/7);
  a.AllocatePage();
  b.AllocatePage();
  SecondaryStore::Page dest;
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.ReadPage(0, &dest, AccessPattern::kRandom)->latency_ns,
              b.ReadPage(0, &dest, AccessPattern::kRandom)->latency_ns);
  }
}

TEST(SecondaryStoreDeathTest, OutOfRangeAborts) {
  SecondaryStore store(DeviceKind::kHdd);
  SecondaryStore::Page dest;
  EXPECT_DEATH(store.ReadPage(0, &dest, AccessPattern::kRandom),
               "out of range");
}

TEST(IoStatsTest, Accumulation) {
  IoStats a, b;
  a.device_ns = 100;
  a.dram_ns = 10;
  a.page_reads = 1;
  a.retries = 3;
  b.device_ns = 200;
  b.cache_hits = 2;
  b.retries = 1;
  a += b;
  EXPECT_EQ(a.device_ns, 300u);
  EXPECT_EQ(a.dram_ns, 10u);
  EXPECT_EQ(a.page_reads, 1u);
  EXPECT_EQ(a.cache_hits, 2u);
  EXPECT_EQ(a.retries, 4u);
  EXPECT_EQ(a.TotalNs(), 310u);
}

}  // namespace
}  // namespace hytap
