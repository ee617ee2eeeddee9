#include "tiering/secondary_store.h"

#include <gtest/gtest.h>

#include <cstring>

#include "storage/sscg.h"

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
