// Reproduces Figure 8: "Latency box plot for full-width tuple
// reconstructions on tables ORDERLINE and BSEG (uniform- and
// zipfian-distributed accesses)."
//
// Placements follow the paper: BSEG = 20 MRC attributes + 325 in the SSCG;
// ORDERLINE = 4 MRC + 6 in the SSCG. IMDB (MRC) denotes the fully
// DRAM-resident dictionary-encoded baseline.
//
// Expected shape: for the wide BSEG table the SSCG variants on fast devices
// match or beat the DRAM baseline (up to ~2x for uniform accesses on the
// paper's testbed); for the narrow ORDERLINE table tiering costs ~70% for
// uniform accesses; zipfian accesses benefit from the page cache.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/tiered_table.h"
#include "query/tuple_reconstructor.h"
#include "workload/enterprise.h"
#include "workload/tpcc.h"

using namespace hytap;

namespace {

void Report(const char* table_name, const char* device,
            const char* distribution, const LatencyStats& stats) {
  std::printf("%-10s %-10s %-8s  p50 %8.1f  mean %8.1f  p95 %8.1f  "
              "p99 %8.1f us\n",
              table_name, device, distribution, double(stats.p50_ns) / 1e3,
              stats.mean_ns / 1e3, double(stats.p95_ns) / 1e3,
              double(stats.p99_ns) / 1e3);
}

void RunTable(const char* name, const Schema& schema,
              const std::vector<Row>& data, size_t mrc_columns,
              size_t reconstructions) {
  // IMDB (MRC) baseline.
  {
    TieredTable table(name, schema, TieredTableOptions{});
    table.Load(data);
    TupleReconstructor reconstructor(&table.table());
    Report(name, "IMDB(MRC)", "uniform",
           reconstructor.RunBatch(reconstructions,
                                  AccessDistribution::kUniform, 1, 13));
    Report(name, "IMDB(MRC)", "zipfian",
           reconstructor.RunBatch(reconstructions,
                                  AccessDistribution::kZipfian, 1, 13));
  }
  for (DeviceKind device : kSecondaryDevices) {
    if (device == DeviceKind::kHdd) continue;  // paper: HDD excluded
    TieredTableOptions options;
    options.device = device;
    options.cache_share = 0.02;
    options.min_frames = 4;
    TieredTable table(name, schema, options);
    table.Load(data);
    std::vector<bool> placement(schema.size(), false);
    for (size_t c = 0; c < mrc_columns; ++c) placement[c] = true;
    if (!table.ApplyPlacement(placement).ok()) return;
    TupleReconstructor reconstructor(&table.table());
    Report(name, DeviceKindName(device), "uniform",
           reconstructor.RunBatch(reconstructions,
                                  AccessDistribution::kUniform, 1, 13));
    Report(name, DeviceKindName(device), "zipfian",
           reconstructor.RunBatch(reconstructions,
                                  AccessDistribution::kZipfian, 1, 13));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool small = argc > 1 && std::string(argv[1]) == "--small";
  bench::PrintHeader("Figure 8: tuple reconstruction, ORDERLINE and BSEG");

  // ORDERLINE: narrow (10 attributes), 4 MRC + 6 SSCG.
  OrderlineParams ol_params;
  ol_params.warehouses = small ? 2 : 6;
  ol_params.districts_per_warehouse = 10;
  ol_params.orders_per_district = small ? 30 : 100;
  RunTable("ORDERLINE", OrderlineSchema(),
           GenerateOrderlineRows(ol_params), 4, small ? 1000 : 5000);

  // BSEG: wide (345 attributes), 20 MRC + 325 SSCG.
  EnterpriseProfile bseg = BsegProfile();
  const size_t bseg_rows = small ? 2000 : 10000;
  RunTable("BSEG", MakeEnterpriseSchema(bseg),
           GenerateEnterpriseRows(bseg, bseg_rows, 7), 20,
           small ? 800 : 3000);

  std::printf("-> runtimes are dominated by the SSCG width: wide BSEG "
              "tuples reconstruct from one page and beat the DRAM baseline "
              "on fast devices; narrow ORDERLINE tuples pay the device "
              "latency (paper Fig. 8).\n");
  return 0;
}
