// Reproduces Figure 7: "Latencies for full-width tuple reconstructions on
// synthetic data set (uniformly distributed accesses)" — mean and 99th
// percentile, varying the number of attributes stored in the SSCG from 20 to
// 200 (of a 200-attribute table), across devices, with the page cache set to
// 2% of the evicted data and a fully DRAM-resident baseline.
//
// Expected shape: NAND devices sit near their ~100 us service time with
// heavy p99 tails; 3D XPoint starts near 10-20 us and beats the DRAM
// baseline once >= 50% of the attributes live in the SSCG; the DRAM
// baseline's cost is flat (two cache misses per attribute).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/tiered_table.h"
#include "query/tuple_reconstructor.h"
#include "workload/enterprise.h"

using namespace hytap;

int main(int argc, char** argv) {
  const bool small = argc > 1 && std::string(argv[1]) == "--small";
  EnterpriseProfile profile = BsegProfile();
  profile.attribute_count = 200;
  const size_t rows = small ? 4000 : 20000;
  const size_t reconstructions = small ? 1000 : 5000;
  const std::vector<Row> data = GenerateEnterpriseRows(profile, rows, 7);

  bench::PrintHeader(
      "Figure 7: full-width tuple reconstruction latency (uniform)");
  std::printf("table: %zu rows x 200 int attributes; cache = 2%% of evicted "
              "data; %zu reconstructions per point\n\n",
              rows, reconstructions);

  // DRAM baseline (IMDB): flat in the SSCG-width dimension.
  {
    TieredTable table("dram", MakeEnterpriseSchema(profile),
                      TieredTableOptions{});
    table.Load(data);
    TupleReconstructor reconstructor(&table.table());
    LatencyStats stats = reconstructor.RunBatch(
        reconstructions, AccessDistribution::kUniform, 1, 13);
    std::printf("%-10s %-12s mean %8.1f us   p99 %8.1f us\n", "DRAM",
                "(any width)", stats.mean_ns / 1e3,
                double(stats.p99_ns) / 1e3);
  }

  std::printf("\n%-10s %12s %12s %12s\n", "device", "SSCG attrs",
              "mean [us]", "p99 [us]");
  for (DeviceKind device : kSecondaryDevices) {
    if (device == DeviceKind::kHdd) continue;  // paper: HDD excluded here
    for (size_t sscg_width : {20, 50, 100, 150, 200}) {
      TieredTableOptions options;
      options.device = device;
      options.cache_share = 0.02;
      options.min_frames = 4;
      TieredTable table("tiered", MakeEnterpriseSchema(profile), options);
      table.Load(data);
      std::vector<bool> placement(200, false);
      for (size_t c = sscg_width; c < 200; ++c) placement[c] = true;
      // The first `sscg_width` attributes are evicted; the rest stay MRC.
      if (!table.ApplyPlacement(placement).ok()) return 1;
      TupleReconstructor reconstructor(&table.table());
      LatencyStats stats = reconstructor.RunBatch(
          reconstructions, AccessDistribution::kUniform, 1, 13);
      std::printf("%-10s %12zu %12.1f %12.1f\n", DeviceKindName(device),
                  sscg_width, stats.mean_ns / 1e3,
                  double(stats.p99_ns) / 1e3);
    }
    std::printf("\n");
  }
  std::printf("-> on 3D XPoint, SSCG-placed tuples outperform the fully "
              "DRAM-resident dictionary-encoded baseline once >= 50%% of "
              "attributes are in the SSCG (paper Fig. 7).\n");
  return 0;
}
