// Real wall-clock scaling of the morsel-driven parallel engine: MRC scans,
// tiered probes, and tuple materialization at 1/2/4/8 worker threads.
//
// Unlike the figure benchmarks (which report *simulated* device time), this
// one measures actual elapsed time of the parallel data passes, so the
// numbers depend on the host's core count. Results are printed as a table
// and written to BENCH_parallel_scaling.json for the CI trend tracker.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "query/executor.h"
#include "query/scan.h"
#include "storage/dictionary_column.h"
#include "storage/table.h"
#include "workload/tpcc.h"

using namespace hytap;

namespace {

struct Sample {
  const char* op;
  uint32_t threads;
  double seconds;
  double rows_per_sec;
  double speedup;  // vs the 1-thread run of the same op
};

std::vector<Sample> g_samples;

/// Times `fn` (already warmed) over `reps` runs, keeping the best run —
/// standard practice for wall-clock microbenchmarks on shared machines.
template <typename Fn>
double BestSeconds(int reps, Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    bench::Stopwatch watch;
    fn();
    best = std::min(best, watch.Seconds());
  }
  return best;
}

void Record(const char* op, uint32_t threads, double seconds, size_t rows,
            double base_seconds) {
  const Sample s{op, threads, seconds, double(rows) / seconds,
                 base_seconds / seconds};
  g_samples.push_back(s);
  std::printf("  %-12s %2u threads: %9.2f ms  %10.1f Mrows/s  %5.2fx\n",
              op, threads, seconds * 1e3, s.rows_per_sec / 1e6, s.speedup);
}

void WriteJson(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < g_samples.size(); ++i) {
    const Sample& s = g_samples[i];
    std::fprintf(f,
                 "  {\"op\": \"%s\", \"threads\": %u, \"seconds\": %.6f, "
                 "\"rows_per_sec\": %.1f, \"speedup\": %.3f}%s\n",
                 s.op, s.threads, s.seconds, s.rows_per_sec, s.speedup,
                 i + 1 < g_samples.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const bool small = argc > 1 && std::string(argv[1]) == "--small";
  const uint32_t thread_counts[] = {1, 2, 4, 8};

  // --- MRC vectorized scan: the ISSUE acceptance target (>= 2x at 4
  // threads on >= 10M rows, given >= 4 physical cores). ---
  const size_t scan_rows = small ? 1000000 : 10000000;
  bench::PrintHeader("MRC scan scaling (dictionary-encoded int32)");
  std::printf("%zu rows, ~1%% selectivity, best of 5\n", scan_rows);
  {
    Rng rng(42);
    std::vector<int32_t> values;
    values.reserve(scan_rows);
    for (size_t r = 0; r < scan_rows; ++r) {
      values.push_back(int32_t(rng.NextBounded(10000)));
    }
    auto column = DictionaryColumn<int32_t>::Build(values);
    const Value lo(int32_t{100}), hi(int32_t{199});
    double base = 0;
    for (uint32_t threads : thread_counts) {
      const double secs = BestSeconds(5, [&] {
        PositionList out;
        ParallelScanColumn(*column, &lo, &hi, threads, &out);
      });
      if (threads == 1) base = secs;
      Record("mrc_scan", threads, secs, scan_rows, base);
    }
  }

  // --- Probe + materialize over a TPC-C ORDERLINE-shaped tiered table. ---
  OrderlineParams params;
  params.warehouses = small ? 20 : 100;
  bench::PrintHeader("ORDERLINE probe + materialize scaling");
  {
    TransactionManager txns;
    SecondaryStore store(DeviceKind::kCssd);
    BufferManager buffers(&store, 4096);
    Table table("orderline", OrderlineSchema(), &txns, &store, &buffers);
    table.BulkLoad(GenerateOrderlineRows(params));
    const size_t rows = table.main_row_count();
    std::printf("%zu rows, payload tiered, best of 3\n", rows);
    // Paper placement: primary key stays in DRAM, payload goes to the SSCG.
    std::vector<bool> placement(OrderlineSchema().size(), false);
    for (ColumnId c : OrderlinePrimaryKey()) placement[c] = true;
    if (!table.SetPlacement(placement).ok()) return 1;

    QueryExecutor executor(&table);
    Transaction txn = txns.Begin();
    // CH-19-style analytical query: DRAM predicate + tiered range predicate,
    // projecting two payload columns. Exercises scan, probe, materialize.
    Query query = ChQuery19(/*warehouse=*/1, /*item_lo=*/0,
                            /*item_hi=*/int32_t(params.items),
                            /*quantity_lo=*/1, /*quantity_hi=*/6);
    double base = 0;
    for (uint32_t threads : thread_counts) {
      const double secs = BestSeconds(3, [&] {
        buffers.Clear();
        QueryResult result = executor.Execute(txn, query, threads);
        if (result.positions.empty()) std::abort();  // keep work observable
      });
      if (threads == 1) base = secs;
      Record("query_e2e", threads, secs, rows, base);
    }
    // Materialization alone: project every row of a selective scan.
    Query wide;
    wide.predicates.push_back(
        Predicate::Between(kOlQuantity, Value(int32_t{1}), Value(int32_t{3})));
    wide.projections = {kOlOId, kOlIId, kOlAmount, kOlDistInfo};
    base = 0;
    for (uint32_t threads : thread_counts) {
      size_t materialized = 0;
      const double secs = BestSeconds(3, [&] {
        buffers.Clear();
        QueryResult result = executor.Execute(txn, wide, threads);
        materialized = result.rows.size();
      });
      if (threads == 1) base = secs;
      Record("materialize", threads, secs, materialized, base);
    }
    txns.Abort(&txn);
  }

  std::printf("\npool: %zu helper threads (override with HYTAP_THREADS)\n",
              ThreadPool::Global().helper_count());
  WriteJson("BENCH_parallel_scaling.json");
  return 0;
}
