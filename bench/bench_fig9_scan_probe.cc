// Reproduces Figure 9: "Runtime performance of sequential access patterns"
// on tiered column groups.
//  (a) scanning one attribute of an SSCG of width 1, 10, and 100 attributes
//      (costs scale with the group width: a 4 KB page holds fewer values the
//      wider the rows), across devices and thread counts;
//  (b) probing a tiered attribute at 0.1% and 10% candidate selectivity.
//
// Expected shape: scan cost grows linearly with the group width; HDDs do
// well for single-stream sequential IO but collapse with concurrent
// requests; NAND SSDs need deep queues; probing hits random-read behaviour.

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/random.h"
#include "storage/sscg.h"
#include "storage/zone_map.h"

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
  const size_t rows = small ? 50000 : 200000;
  // The paper's figure measures full sequential passes; the synthetic data
  // ((r*31+c)%1000) is partially prunable, so data skipping would distort
  // the published shape. bench_data_skipping measures the pruned path.
  SetZoneMapsEnabled(false);

  bench::PrintHeader("Figure 9a: scanning one attribute of an SSCG");
  std::printf("%zu rows; cost = simulated wall time per scan\n", rows);
  std::printf("%-10s %8s | %12s %12s %12s\n", "device", "group",
              "1 thread", "8 threads", "32 threads");
  for (DeviceKind device : kSecondaryDevices) {
    for (size_t width : {1, 10, 100}) {
      SecondaryStore store(device);
      Schema schema = WideSchema(width);
      std::vector<ColumnId> members;
      for (ColumnId c = 0; c < width; ++c) members.push_back(c);
      Sscg sscg(RowLayout(schema, members), GroupRows(rows, width), &store);
      // Tiny cache: scans must hit the device.
      BufferManager buffers(&store, 16);
      std::printf("%-10s %5zu/%-2d |", DeviceKindName(device), size_t{1},
                  int(width));
      for (uint32_t threads : {1u, 8u, 32u}) {
        buffers.Clear();
        PositionList out;
        IoStats io;
        Value v(int32_t{5});
        sscg.ScanSlot(0, &v, &v, &buffers, threads, &out, &io);
        std::printf(" %10.2f ms", double(io.WallNs(threads)) / 1e6);
      }
      std::printf("\n");
    }
  }

  bench::PrintHeader("Figure 9b: probing a tiered attribute (1/100 group)");
  std::printf("%-10s %12s | %12s %12s %12s\n", "device", "selectivity",
              "1 thread", "8 threads", "32 threads");
  const size_t width = 100;
  Schema schema = WideSchema(width);
  std::vector<ColumnId> members;
  for (ColumnId c = 0; c < width; ++c) members.push_back(c);
  const auto rows_data = GroupRows(rows, width);
  for (DeviceKind device : kSecondaryDevices) {
    SecondaryStore store(device);
    Sscg sscg(RowLayout(schema, members), rows_data, &store);
    BufferManager buffers(&store, 64);
    for (double selectivity : {0.001, 0.1}) {
      // Random candidate positions (sorted), as produced by prior filters.
      Rng rng(99);
      PositionList candidates;
      const size_t count = size_t(double(rows) * selectivity);
      for (size_t k = 0; k < count; ++k) {
        candidates.push_back(rng.NextBounded(rows));
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
      std::printf("%-10s %11.1f%% |", DeviceKindName(device),
                  100.0 * selectivity);
      for (uint32_t threads : {1u, 8u, 32u}) {
        buffers.Clear();
        PositionList out;
        IoStats io;
        Value v(int32_t{5});
        sscg.ProbeSlot(0, &v, &v, candidates, &buffers, threads, &out, &io);
        std::printf(" %10.2f ms", double(io.WallNs(threads)) / 1e6);
      }
      std::printf("\n");
    }
  }
  std::printf("\n-> scan cost scales with SSCG width; HDD collapses under "
              "concurrent streams; SSD probing needs queue depth "
              "(paper Fig. 9).\n");
  return 0;
}
