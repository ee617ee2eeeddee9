// olap_scan: closed loop, one client, Execute(threads=2) range-filter
// SUM/COUNT queries over a tiered BSEG-profile table (README.md §olap_scan).
// Storage kernels, zone maps, the SSCG scan, the buffer manager and the
// executor do nearly all the work; serving, re-tiering and the solver do
// none. Short append batches spread over the run stand in for writes.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "core/tiered_table.h"
#include "workload/enterprise.h"

namespace perfbench {
namespace {

using namespace hytap;

constexpr size_t kCols = 24;
constexpr size_t kRows = 120000;
/// Columns [0, kDramCols) are MRCs; the rest form the SSCG on the CSSD with
/// the default 2 % page cache.
constexpr size_t kDramCols = 12;
constexpr uint32_t kThreads = 2;
/// Nominal op rate: a pass's fixed op count is kOpsPerSecond times the
/// pass length.
constexpr double kOpsPerSecond = 240.0;
/// Appends: kAppendBatches batches of kBatchTxns transactions of
/// kAppendRows rows each per pass, spread evenly over the query loop. One transaction
/// takes tens of microseconds, so write_p50_ms is timed per batch (a few
/// milliseconds) and divided by kBatchTxns; spreading the batches over the
/// run keeps a short slowdown of the host from setting every sample.
constexpr size_t kAppendBatches = 30;
constexpr size_t kBatchTxns = 50;
constexpr size_t kAppendTxns = kAppendBatches * kBatchTxns;
constexpr size_t kAppendRows = 10;

struct Data {
  std::vector<std::vector<int32_t>> cols;  // columnar copy for the oracle
  std::vector<int32_t> cardinality;        // max value + 1 per column
};

struct Setup {
  std::unique_ptr<TieredTable> table;
  Data data;
};

EnterpriseProfile Profile() {
  EnterpriseProfile profile = BsegProfile();
  profile.attribute_count = kCols;
  return profile;
}

Setup Build(uint64_t seed) {
  Setup s;
  TieredTableOptions options;
  options.device = DeviceKind::kCssd;
  options.timing_seed = seed;
  s.table = std::make_unique<TieredTable>(
      "bseg", MakeEnterpriseSchema(Profile()), options);
  {
    // Scoped so the row objects are freed before the placement rebuild.
    const std::vector<Row> rows =
        GenerateEnterpriseRows(Profile(), kRows, kDataSeed);
    s.data.cols.assign(kCols, std::vector<int32_t>(kRows));
    s.data.cardinality.assign(kCols, 1);
    for (size_t r = 0; r < kRows; ++r) {
      for (size_t c = 0; c < kCols; ++c) {
        const int32_t v = rows[r][c].AsInt32();
        s.data.cols[c][r] = v;
        s.data.cardinality[c] = std::max(s.data.cardinality[c], v + 1);
      }
    }
    s.table->Load(rows);
  }
  s.table->table().BuildStatistics();
  std::vector<bool> placement(kCols, false);
  for (size_t c = 0; c < kDramCols; ++c) placement[c] = true;
  if (!s.table->ApplyPlacement(placement).ok()) s.table.reset();
  return s;
}

struct ScanOp {
  Query query;
  bool tiered = false;
};

Predicate RangeOn(ColumnId c, const Data& data, double lo_share,
                  double hi_share) {
  const int32_t card = data.cardinality[c];
  return Predicate::Between(c, Value(int32_t(double(card) * lo_share)),
                            Value(int32_t(double(card) * hi_share)));
}

/// The op list, fixed before timing. Four kinds, in the rotation
/// 0 1 2 3 1 3 so that the medians fall inside the continuous kinds 1 and 3
/// rather than on the edge between two kinds:
///  0  zone-map-prunable document-number range (0.2-5 %) + SUM/COUNT
///  1  DRAM range with 5-100 % selectivity + SUM/COUNT
///  2  kind 0 plus a predicate on a tiered column
///  3  DRAM range with 5-30 % selectivity + SUM of a tiered column
/// Filters use columns 0-7 and tiered 12-15, aggregates 2-7 and tiered
/// 16-19; columns 8-11 and 20-23 are never touched. Columns rotate by op
/// index and the range widths are stratified draws, so every seed gives the
/// same mix of costs; the seed draws the order, the range positions and the
/// jitter within each stratum.
std::vector<ScanOp> MakeOps(size_t n, uint64_t seed, const Data& data) {
  static constexpr size_t kRotation[] = {0, 1, 2, 3, 1, 3};
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 11);
  size_t count[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < n; ++i) ++count[kRotation[i % 6]];
  Strata doc_width(count[0] + count[2], rng);
  Strata dram_share[2] = {Strata(count[1], rng), Strata(count[3], rng)};
  Strata tiered_share(count[2], rng);
  std::vector<ScanOp> ops(n);
  size_t seen[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < n; ++i) {
    ScanOp& op = ops[i];
    Query& q = op.query;
    const size_t kind = kRotation[i % 6];
    const size_t j = seen[kind]++;
    if (kind == 0 || kind == 2) {
      const double width = 0.002 + 0.048 * doc_width.Next(rng);
      const double lo = rng.NextDouble(0.0, 1.0 - width);
      q.predicates.push_back(RangeOn(0, data, lo, lo + width));
    } else {
      const ColumnId c = ColumnId(1 + j % 7);
      const double u = dram_share[kind == 1 ? 0 : 1].Next(rng);
      const double share = kind == 1 ? 0.05 + 0.95 * u : 0.05 + 0.25 * u;
      q.predicates.push_back(RangeOn(c, data, 0.0, share));
    }
    if (kind == 2) {
      const ColumnId t = ColumnId(12 + j % 4);
      q.predicates.push_back(
          RangeOn(t, data, 0.0, 0.2 + 0.6 * tiered_share.Next(rng)));
    }
    const ColumnId agg = kind == 3 ? ColumnId(16 + (j / 7) % 4)
                                   : ColumnId(2 + (i / 6) % 6);
    q.aggregates = {Aggregate::Sum(agg), Aggregate::Count()};
    op.tiered = kind >= 2;
  }
  return ops;
}

/// Naive row-at-a-time evaluation of SUM/COUNT over the generated rows.
void Oracle(const Query& q, const Data& data, double* sum, int64_t* count) {
  int64_t total = 0;
  int64_t matched = 0;
  const std::vector<int32_t>& agg = data.cols[q.aggregates[0].column];
  for (size_t r = 0; r < kRows; ++r) {
    bool ok = true;
    for (const Predicate& p : q.predicates) {
      const int32_t v = data.cols[p.column][r];
      if (v < p.lo->AsInt32() || v > p.hi->AsInt32()) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    total += agg[r];
    ++matched;
  }
  *sum = double(total);
  *count = matched;
}

}  // namespace

Report RunOlapScan(const RunConfig& config) {
  Report report;
  Tracer* tracer = config.tracer;
  const bool traced = tracer->on();
  const size_t n =
      std::max<size_t>(40, size_t(kOpsPerSecond * config.pass_seconds));
  const size_t append_every = std::max<size_t>(1, n / kAppendBatches);

  Samples all, tiered_lat, write_lat, merge_lat;
  Samples exec_us, record_us, begin_commit;  // traced only
  std::vector<double> setup_s, loop_s;
  StorageReplay replay;
  double gap_pct = 0.0, dram_ratio = 0.0, sim_us = 0.0;
  uint64_t evictions = 0;
  for (size_t pass = 0; pass < config.passes; ++pass) {
    NextPass({&all, &tiered_lat, &write_lat, &merge_lat});
    const uint64_t setup_start = NowNs();
    Setup s = Build(config.seed);
    setup_s.push_back(double(NowNs() - setup_start) / 1e9);
    if (s.table == nullptr) {
      report.Error("initial placement failed");
      return report;
    }
    TieredTable& table = *s.table;

    const std::vector<ScanOp> ops = MakeOps(n, config.seed, s.data);
    {
      // Warm-up: unrecorded ops from a different seed.
      const std::vector<ScanOp> warm =
          MakeOps(n / 20, config.seed + 7, s.data);
      Transaction txn = table.Begin();
      for (const ScanOp& op : warm) {
        (void)table.ExecuteUnrecorded(txn, op.query, kThreads);
      }
      table.Commit(&txn);
    }

    // The appended rows, fixed before timing like the queries.
    std::vector<std::vector<Row>> appends(kAppendTxns);
    {
      Rng ingest(config.seed * 31 + 5);
      for (size_t k = 0; k < kAppendTxns; ++k) {
        appends[k].assign(kAppendRows, Row(kCols));
        for (size_t j = 0; j < kAppendRows; ++j) {
          appends[k][j][0] = Value(int32_t(kRows + k * kAppendRows + j));
          for (size_t c = 1; c < kCols; ++c) {
            appends[k][j][c] = Value(int32_t(
                ingest.NextBounded(uint64_t(s.data.cardinality[c]))));
          }
        }
      }
    }
    // One batch of append transactions. The queries read at the snapshot of
    // `txn`, taken before any append commits, so their results do not
    // change; they do scan the growing delta.
    const auto append_batch = [&](size_t b) {
      Status status;
      const uint64_t b0 = NowNs();
      for (size_t t = 0; t < kBatchTxns; ++t) {
        const size_t k = b * kBatchTxns + t;
        const uint32_t op = uint32_t(n + k);
        const int32_t span = tracer->Open("bench.write", op, -1);
        const uint64_t w0 = NowNs();
        Transaction w = table.Begin();
        const uint64_t w1 = NowNs();
        for (const Row& row : appends[k]) {
          if (status.ok()) status = table.Insert(w, row);
        }
        const uint64_t w2 = NowNs();
        table.Commit(&w);
        const uint64_t w3 = NowNs();
        tracer->Add("txn.Begin", op, span, w0, w1);
        tracer->Add("core.Insert", op, span, w1, w2);
        tracer->Add("txn.Commit", op, span, w2, w3);
        tracer->Close(span);
        begin_commit.Add((w1 - w0) + (w3 - w2));
      }
      const uint64_t elapsed = NowNs() - b0;
      if (status.ok()) {
        write_lat.Add(elapsed / kBatchTxns);
      } else {
        write_lat.AddMiss();
        report.Error("append failed: " + status.ToString());
      }
      return elapsed;
    };

    QueryTotals totals;
    std::vector<QueryResult> results(n);
    const BufferStats cache_before = table.buffers().stats();
    uint64_t replay_ns = 0, write_ns = 0;

    Transaction txn = table.Begin();
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) {
      const Query& q = ops[i].query;
      const int32_t span = tracer->Open("bench.op", uint32_t(i), -1);
      const uint64_t start = NowNs();
      QueryResult r;
      if (!traced) {
        r = table.Execute(txn, q, kThreads);
      } else {
        QueryObservation obs;
        bool filled = false;
        PhaseVector phases;
        ExecOptions opts;
        opts.threads = kThreads;
        opts.observation = &obs;
        opts.observation_filled = &filled;
        opts.phases = &phases;
        const uint64_t e0 = NowNs();
        r = table.executor().Execute(txn, q, opts);
        const uint64_t e1 = NowNs();
        table.RecordExecution(q, obs, filled);
        const uint64_t e2 = NowNs();
        tracer->Add("query.Execute", uint32_t(i), span, e0, e1);
        tracer->Add("core.RecordExecution", uint32_t(i), span, e1, e2);
        exec_us.Add(e1 - e0);
        record_us.Add(e2 - e1);
        for (size_t p = 0; p < kQueryPhaseCount; ++p) {
          totals.phases.ns[p] += phases.ns[p];
        }
      }
      const uint64_t end = NowNs();
      tracer->Close(span);
      if (r.status.ok()) {
        all.Add(end - start);
        if (ops[i].tiered) tiered_lat.Add(end - start);
      } else {
        all.AddMiss();
        if (ops[i].tiered) tiered_lat.AddMiss();
        ++report.failed;
      }
      ++totals.queries;
      totals.sim_ns += r.io.TotalNs();
      totals.page_reads += r.io.page_reads;
      totals.cache_hits += r.io.cache_hits;
      totals.retries += r.io.retries;
      for (size_t c : r.candidate_trace) totals.examined += c;
      totals.result_rows += r.positions.size();
      if (traced) {
        const uint64_t r0 = NowNs();
        replay.Scan(table.table(), q, kThreads, 1'000'000 + i, tracer,
                    uint32_t(i), span);
        replay_ns += NowNs() - r0;
      }
      r.positions.clear();
      r.positions.shrink_to_fit();
      results[i] = std::move(r);
      const size_t batch = (i + 1) / append_every;
      if ((i + 1) % append_every == 0 && batch <= kAppendBatches) {
        write_ns += append_batch(batch - 1);
      }
    }
    loop_s.push_back(double(NowNs() - t0 - replay_ns - write_ns) / 1e9);
    table.Commit(&txn);
    report.attempted += n;
    const BufferStats cache_after = table.buffers().stats();
    gap_pct = PlacementGapPct(table);

    // The delta merge that folds the appends into the tiered main partition.
    const int32_t merge_span =
        tracer->Open("core.MergeDelta", uint32_t(n), -1);
    const uint64_t m0 = NowNs();
    const Status merged = table.MergeDelta();
    merge_lat.Add(NowNs() - m0);
    tracer->Close(merge_span);
    if (!merged.ok()) report.Error("merge failed: " + merged.ToString());

    // Output checks: every SUM/COUNT against the naive evaluation (first
    // pass; later passes must reproduce the result checksum), and every
    // acknowledged append visible after the merge.
    double checksum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (!results[i].status.ok()) continue;
      const std::vector<Value>& got = results[i].aggregate_values;
      if (got.size() != 2) {
        report.Error("op " + std::to_string(i) + ": no SUM/COUNT");
        break;
      }
      if (pass == 0) {
        double sum = 0.0;
        int64_t count = 0;
        Oracle(ops[i].query, s.data, &sum, &count);
        if (got[0].AsDouble() != sum || got[1].AsInt64() != count) {
          report.Error("op " + std::to_string(i) + ": SUM/COUNT mismatch");
          break;
        }
      }
      checksum += got[0].AsDouble() + double(got[1].AsInt64());
    }
    {
      Query all_rows;
      all_rows.predicates = {Predicate::AtLeast(0, Value(int32_t{0}))};
      all_rows.aggregates = {Aggregate::Count()};
      Transaction r = table.Begin();
      const QueryResult count =
          table.ExecuteUnrecorded(r, all_rows, kThreads);
      table.Commit(&r);
      if (!count.status.ok() || count.aggregate_values.empty() ||
          count.aggregate_values[0].AsInt64() !=
              int64_t(kRows + kAppendTxns * kAppendRows)) {
        report.Error("appended rows not all visible after merge");
      }
    }

    sim_us = double(totals.sim_ns) / double(n) / 1e3;
    dram_ratio = DramPerUserByte(table.table());
    evictions = cache_after.evictions - cache_before.evictions;
    report.Det("sim_us_per_op", sim_us);
    report.Det("dram_per_user_byte", dram_ratio);
    report.Det("gap_pct", gap_pct);
    report.Det("result_checksum", checksum);
    report.Det("tiering.evictions", evictions);
    report.Det("tiering.misses", cache_after.misses - cache_before.misses);
    ReportQueryTotals(totals, &report, traced);
  }
  CheckAligned({&all, &tiered_lat, &write_lat, &merge_lat}, &report);
  report.measured_s = Median(loop_s);

  const double tail_p = TailPercentile(all.size());
  size_t completed = 0;
  for (uint64_t ns : all.Best()) completed += ns != UINT64_MAX;
  report.E2e("setup_s", Median(setup_s));
  report.E2e("p50_ms", all.MedianMs());
  report.E2e("tail_ms", all.QuantileMs(tail_p / 100.0));
  report.E2e("ops_per_s", double(completed) / (all.SumMs() / 1e3));
  report.E2e("olap_p50_ms", tiered_lat.MedianMs());
  report.E2e("write_p50_ms", write_lat.MedianMs());
  report.E2e("maint_s", merge_lat.SumMs() / 1e3);
  report.E2e("sim_us_per_op", sim_us);
  report.E2e("dram_per_user_byte", dram_ratio);
  report.E2e("gap_pct", gap_pct);
  report.E2e("rss_mb", PeakRssMb());

  report.Layer("tiering.evictions", double(evictions));
  if (traced) {
    report.Layer("query.exec_us.olap", exec_us.QuantileMs(0.5) * 1e3);
    report.Layer("core.record_us", record_us.QuantileMs(0.5) * 1e3);
    report.Layer("txn.begin_commit_us", begin_commit.MedianMs() * 1e3);
    report.Layer("core.merge_ms_per_krow",
                 merge_lat.SumMs() / (double(kAppendTxns * kAppendRows) / 1e3));
    replay.Emit(&report);
  }

  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%g", tail_p);
  report.Record("tail_percentile", buf);
  report.Record("ops_per_pass", std::to_string(n));
  report.Record("tiered_ops_per_pass", std::to_string(tiered_lat.size()));
  report.Record("append_txns_per_pass", std::to_string(kAppendTxns));
  report.Record("append_txns_per_sample", std::to_string(kBatchTxns));
  report.Record("rows", std::to_string(kRows));
  return report;
}

}  // namespace perfbench
