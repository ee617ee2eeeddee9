// retier_shift: closed loop, one client, threads=1 queries over a smaller
// BSEG-profile table whose hot filter columns flip between the two ends of
// the schema, with inserts beside the queries, a periodic MergeDelta, and
// RetierDaemon::Tick() on the client thread every kTickOps ops
// (README.md §retier_shift). The migrator, SetPlacement, the merge and
// reallocation-aware selection do the work; foreground ops are blocked for
// every tick and merge, which maint_s sums.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "core/migrator.h"
#include "core/retier_daemon.h"
#include "selection/cost_model.h"
#include "workload/enterprise.h"

namespace perfbench {
namespace {

using namespace hytap;

constexpr size_t kCols = 24;
constexpr size_t kRows = 20000;
constexpr size_t kHot = 6;
constexpr ColumnId kHotA = 1;                 // columns 1..6
constexpr ColumnId kHotB = kCols - kHot - 1;  // columns 17..22
constexpr double kOpsPerSecond = 2000.0;
constexpr size_t kPhases = 2;
constexpr size_t kTickOps = 40;
constexpr size_t kMergeOps = 2000;
constexpr size_t kInsertRows = 4;

struct Setup {
  std::unique_ptr<TieredTable> table;
  std::vector<int32_t> cardinality;
  double budget_bytes = 0.0;
  uint64_t max_hot_bytes = 0;
};

Setup Build(uint64_t seed) {
  Setup s;
  EnterpriseProfile profile = BsegProfile();
  profile.attribute_count = kCols;
  TieredTableOptions options;
  options.device = DeviceKind::kCssd;
  options.timing_seed = seed;
  // Windows roll only through ForceRoll (fixed by op index), never on the
  // simulated clock.
  options.monitor.window_ns = 1'000'000'000'000'000ull;
  s.table = std::make_unique<TieredTable>(
      "bseg", MakeEnterpriseSchema(profile), options);
  s.cardinality.assign(kCols, 1);
  {
    const std::vector<Row> rows = GenerateEnterpriseRows(profile, kRows, kDataSeed);
    for (const Row& row : rows) {
      for (size_t c = 0; c < kCols; ++c) {
        s.cardinality[c] = std::max(s.cardinality[c], row[c].AsInt32() + 1);
      }
    }
    s.table->Load(rows);
  }
  Table& table = s.table->table();
  table.BuildStatistics();
  // Start on phase A's hot set; the DRAM budget holds one hot set plus
  // slack, so every flip forces evictions before loads.
  std::vector<bool> placement(kCols, false);
  double hot_bytes = 0.0;
  for (ColumnId c = kHotA; c < kHotA + kHot; ++c) {
    placement[c] = true;
    hot_bytes += double(table.ColumnDramBytes(c));
  }
  for (ColumnId c = 0; c < kCols; ++c) {
    const bool hot = (c >= kHotA && c < kHotA + kHot) ||
                     (c >= kHotB && c < kHotB + kHot);
    if (hot) {
      s.max_hot_bytes = std::max<uint64_t>(s.max_hot_bytes,
                                           table.ColumnDramBytes(c));
    }
  }
  s.budget_bytes = hot_bytes * 1.15;
  if (!s.table->ApplyPlacement(placement).ok()) s.table.reset();
  return s;
}

enum class Kind { kQuery, kOlap, kInsert };

struct Op {
  Kind kind = Kind::kQuery;
  Query query;
  std::vector<Row> rows;  // kInsert: one transaction's rows
};

/// Phase A, then phase B; op i % 10 == 0 inserts kInsertRows rows in
/// one transaction, 8-9 are analytical range+SUM queries, the rest equality
/// filters with COUNT. Filter columns rotate through the phase's hot set by
/// op index, so every seed exercises the same column mix; the seed draws the
/// filter values and the inserted rows.
std::vector<Op> MakeOps(size_t n, uint64_t seed, const Setup& s) {
  Rng rng(seed * 0xA0761D6478BD642Full + 7);
  std::vector<Op> ops(n);
  const size_t phase_len = (n + kPhases - 1) / kPhases;
  for (size_t i = 0; i < n; ++i) {
    Op& op = ops[i];
    const ColumnId base = (i / phase_len) % 2 == 0 ? kHotA : kHotB;
    const size_t slot = i % 10;
    const ColumnId hot = ColumnId(base + (i / 10 + slot) % kHot);
    const ColumnId other = ColumnId(base + (i / 10 + slot + 3) % kHot);
    if (slot == 0) {
      op.kind = Kind::kInsert;
      op.rows.assign(kInsertRows, Row(kCols));
      for (size_t j = 0; j < kInsertRows; ++j) {
        op.rows[j][0] = Value(int32_t(kRows + i * kInsertRows + j));
        for (size_t c = 1; c < kCols; ++c) {
          op.rows[j][c] =
              Value(int32_t(rng.NextBounded(uint64_t(s.cardinality[c]))));
        }
      }
    } else if (slot >= 8) {
      op.kind = Kind::kOlap;
      op.query.predicates.push_back(Predicate::Between(
          hot, Value(int32_t{0}), Value(s.cardinality[hot] / 2)));
      op.query.aggregates = {Aggregate::Sum(other), Aggregate::Count()};
    } else {
      op.query.predicates.push_back(Predicate::Equals(
          hot, Value(int32_t(rng.NextBounded(uint64_t(s.cardinality[hot]))))));
      if (slot % 3 == 0) {
        op.query.predicates.push_back(Predicate::Between(
            other, Value(int32_t{0}), Value(s.cardinality[other] / 3)));
      }
      op.query.aggregates = {Aggregate::Count()};
    }
  }
  return ops;
}

/// The selection problem the daemon solves, on the monitor's recent windows.
struct Judged {
  double current = 0.0;   // F(y)
  double optimum = 0.0;   // F(x*) of the exact optimum at the budget
  double moved = 0.0;     // bytes moving y -> x*
};

Judged Judge(const TieredTable& table, size_t recent, double budget) {
  Judged j;
  const Workload workload = table.monitor().ToWorkload(table.table(), recent);
  if (workload.queries.empty()) return j;
  const CostModel model(workload, ScanCostParams());
  const std::vector<uint8_t> current = PlacementVector(table.table());
  SelectionProblem problem;
  problem.workload = &workload;
  problem.budget_bytes = budget;
  const SelectionResult optimum = SelectIntegerOptimal(problem);
  j.current = model.ScanCost(current);
  j.optimum = optimum.scan_cost;
  for (size_t c = 0; c < current.size(); ++c) {
    if (current[c] != optimum.in_dram[c]) j.moved += workload.column_sizes[c];
  }
  return j;
}

}  // namespace

Report RunRetierShift(const RunConfig& config) {
  Report report;
  Tracer* tracer = config.tracer;
  const bool traced = tracer->on();
  const size_t n = std::max<size_t>(kPhases * kTickOps * 4,
                                    size_t(kOpsPerSecond * config.pass_seconds));

  // Timed in every pass (best per op over the passes). `maint` holds one
  // sample per tick and per merge.
  Samples query_lat, olap_lat, write_lat, maint;
  // Traced only (one pass).
  Samples gate_lat, begin_commit, exec_oltp, exec_olap, record_us;
  StorageReplay replay;
  double merge_ns = 0.0, merged_rows = 0.0;
  double migrate_ns = 0.0, migrate_bytes = 0.0, eval_ns = 0.0;
  std::vector<double> setup_s, loop_s;
  double sim_us = 0.0, dram_ratio = 0.0, gap_pct = 0.0, regret_pct = 0.0;
  uint64_t steps = 0, moved_bytes = 0, plans = 0, ticks = 0, evictions = 0;
  for (size_t pass = 0; pass < config.passes; ++pass) {
    NextPass({&query_lat, &olap_lat, &write_lat, &maint});
    const uint64_t setup_start = NowNs();
    Setup s = Build(config.seed);
    setup_s.push_back(double(NowNs() - setup_start) / 1e9);
    if (s.table == nullptr) {
      report.Error("initial placement failed");
      return report;
    }
    TieredTable& table = *s.table;

    RetierOptions options;
    options.drift_threshold = 0.25;
    options.min_improvement_pct = 2.0;
    options.dwell_windows = 1;
    options.periodic_windows = 4;
    options.recent_windows = 2;
    options.budget_bytes = s.budget_bytes;
    options.bytes_per_window = s.max_hot_bytes + 1024;  // about one step/tick
    RetierDaemon daemon(&table, options);

    const std::vector<Op> ops = MakeOps(n, config.seed, s);
    {
      const std::vector<Op> warm = MakeOps(200, config.seed + 7, s);
      Transaction txn = table.Begin();
      for (const Op& op : warm) {
        if (op.kind != Kind::kInsert) {
          (void)table.ExecuteUnrecorded(txn, op.query);
        }
      }
      table.Commit(&txn);
    }

    QueryTotals totals;
    uint64_t replay_ns = 0, judge_ns = 0;
    double regret_sum = 0.0;
    size_t regret_samples = 0;
    steps = 0;
    ticks = 0;
    const BufferStats cache_before = table.buffers().stats();

    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) {
      const Op& op = ops[i];
      const int32_t span = tracer->Open(
          op.kind == Kind::kInsert ? "bench.write" : "bench.op", uint32_t(i),
          -1);
      const uint64_t start = NowNs();
      if (op.kind == Kind::kInsert) {
        Transaction txn = table.Begin();
        const uint64_t w1 = NowNs();
        Status status;
        for (const Row& row : op.rows) {
          if (status.ok()) status = table.Insert(txn, row);
        }
        const uint64_t w2 = NowNs();
        table.Commit(&txn);
        const uint64_t w3 = NowNs();
        tracer->Add("txn.Begin", uint32_t(i), span, start, w1);
        tracer->Add("core.Insert", uint32_t(i), span, w1, w2);
        tracer->Add("txn.Commit", uint32_t(i), span, w2, w3);
        gate_lat.Add((w2 - w1) / kInsertRows);
        begin_commit.Add((w1 - start) + (w3 - w2));
        if (status.ok()) {
          write_lat.Add(w3 - start);
        } else {
          write_lat.AddMiss();
          ++report.failed;
          report.Error("insert " + std::to_string(i) + " failed");
        }
      } else {
        Transaction txn = table.Begin();
        QueryResult r;
        if (!traced) {
          r = table.Execute(txn, op.query);
        } else {
          QueryObservation obs;
          bool filled = false;
          PhaseVector phases;
          ExecOptions opts;
          opts.observation = &obs;
          opts.observation_filled = &filled;
          opts.phases = &phases;
          const uint64_t e0 = NowNs();
          r = table.executor().Execute(txn, op.query, opts);
          const uint64_t e1 = NowNs();
          table.RecordExecution(op.query, obs, filled);
          const uint64_t e2 = NowNs();
          tracer->Add("query.Execute", uint32_t(i), span, e0, e1);
          tracer->Add("core.RecordExecution", uint32_t(i), span, e1, e2);
          (op.kind == Kind::kQuery ? exec_oltp : exec_olap).Add(e1 - e0);
          record_us.Add(e2 - e1);
          for (size_t p = 0; p < kQueryPhaseCount; ++p) {
            totals.phases.ns[p] += phases.ns[p];
          }
        }
        table.Commit(&txn);
        const uint64_t end = NowNs();
        Samples& lat = op.kind == Kind::kQuery ? query_lat : olap_lat;
        if (r.status.ok()) {
          lat.Add(end - start);
        } else {
          lat.AddMiss();
          ++report.failed;
        }
        ++totals.queries;
        totals.sim_ns += r.io.TotalNs();
        totals.page_reads += r.io.page_reads;
        totals.cache_hits += r.io.cache_hits;
        totals.retries += r.io.retries;
        for (size_t c : r.candidate_trace) totals.examined += c;
        totals.result_rows += r.positions.size();
      }
      tracer->Close(span);
      if (traced && op.kind != Kind::kInsert) {
        const uint64_t r0 = NowNs();
        replay.Scan(table.table(), op.query, 1, 1'000'000 + i, tracer,
                    uint32_t(i), span);
        replay_ns += NowNs() - r0;
      }

      if ((i + 1) % kMergeOps == 0) {
        const size_t delta = table.table().delta_row_count();
        const int32_t m = tracer->Open("core.MergeDelta", uint32_t(i), -1);
        const uint64_t m0 = NowNs();
        const Status merged = table.MergeDelta();
        const uint64_t m1 = NowNs();
        tracer->Close(m);
        if (!merged.ok()) report.Error("merge failed: " + merged.ToString());
        maint.Add(m1 - m0);
        merge_ns += double(m1 - m0);
        merged_rows += double(delta);
      }
      if ((i + 1) % kTickOps == 0) {
        table.monitor().ForceRoll();
        const int32_t t = tracer->Open("core.Tick", uint32_t(i), -1);
        const uint64_t k0 = NowNs();
        const RetierTickReport tick = daemon.Tick();
        const uint64_t k1 = NowNs();
        tracer->Close(t);
        ++ticks;
        maint.Add(k1 - k0);
        if (tick.steps_applied > 0) {
          migrate_ns += double(k1 - k0);
          migrate_bytes += double(tick.window_bytes);
          steps += tick.steps_applied;
        } else if (tick.evaluated) {
          eval_ns += double(k1 - k0);
        }
        // Placement regret against the exact optimum on the same windows
        // the daemon selects from (outside the timed tick and the loop).
        const uint64_t j0 = NowNs();
        const Judged j = Judge(table, options.recent_windows, s.budget_bytes);
        judge_ns += NowNs() - j0;
        if (j.optimum > 0.0) {
          regret_sum += 100.0 * (j.current - j.optimum) / j.optimum;
          ++regret_samples;
        }
      }
    }
    loop_s.push_back(double(NowNs() - t0 - replay_ns - judge_ns) / 1e9);
    report.attempted += n;
    const BufferStats cache_after = table.buffers().stats();

    // Output check: the converged placement is within the daemon's deadband
    // (net of the reallocation price) of the exact optimum on the last
    // phase's workload.
    const Judged last = Judge(table, options.recent_windows, s.budget_bytes);
    const double beta = BetaFromMigrationWindow(
        Migrator().MoveNsPerByte(table), options.amortization_windows);
    regret_pct = last.current > 0.0
                     ? 100.0 * (last.current - last.optimum - beta * last.moved) /
                           last.current
                     : 0.0;
    if (daemon.state() != RetierState::kIdle) {
      report.Error("daemon still migrating at the end of the last phase");
    }
    if (regret_pct > options.min_improvement_pct + 1e-9) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "final placement %.3f%% above the optimum (deadband %.1f%%)",
                    regret_pct, options.min_improvement_pct);
      report.Error(buf);
    }
    moved_bytes = 0;
    plans = 0;
    for (const RetierPlan& plan : daemon.history()) {
      moved_bytes += plan.moved_bytes;
      ++plans;
    }
    if (steps == 0) report.Error("the daemon never migrated a column");
    // Every acknowledged insert is in the table.
    {
      size_t inserts = 0;
      for (const Op& op : ops) inserts += op.rows.size();
      Query all_rows;
      all_rows.predicates = {Predicate::AtLeast(0, Value(int32_t{0}))};
      all_rows.aggregates = {Aggregate::Count()};
      Transaction r = table.Begin();
      const QueryResult count = table.ExecuteUnrecorded(r, all_rows);
      table.Commit(&r);
      if (!count.status.ok() || count.aggregate_values.empty() ||
          count.aggregate_values[0].AsInt64() != int64_t(kRows + inserts)) {
        report.Error("acknowledged inserts not all visible");
      }
    }

    sim_us = double(totals.sim_ns) / double(totals.queries) / 1e3;
    dram_ratio = DramPerUserByte(table.table());
    gap_pct = regret_samples == 0 ? 0.0 : regret_sum / double(regret_samples);
    evictions = cache_after.evictions - cache_before.evictions;
    report.Det("sim_us_per_op", sim_us);
    report.Det("dram_per_user_byte", dram_ratio);
    report.Det("gap_pct", gap_pct);
    report.Det("core.retier_steps", steps);
    report.Det("core.retier_bytes", moved_bytes);
    report.Det("core.retier_plans", plans);
    report.Det("tiering.evictions", evictions);
    report.Det("tiering.misses", cache_after.misses - cache_before.misses);
    std::string placement;
    for (bool d : table.table().placement()) placement += d ? '1' : '0';
    report.Det("final_placement", uint64_t(std::stoull(placement, nullptr, 2)));
    ReportQueryTotals(totals, &report, traced);
  }
  CheckAligned({&query_lat, &olap_lat, &write_lat, &maint}, &report);
  report.measured_s = Median(loop_s);

  const double tail_p = TailPercentile(query_lat.size());
  size_t completed = 0;
  for (uint64_t ns : query_lat.Best()) completed += ns != UINT64_MAX;
  // The client's loop at every op's, tick's and merge's best time.
  const double best_loop_s = (query_lat.SumMs() + olap_lat.SumMs() +
                              write_lat.SumMs() + maint.SumMs()) /
                             1e3;
  report.E2e("setup_s", Median(setup_s));
  report.E2e("p50_ms", query_lat.MedianMs());
  report.E2e("tail_ms", query_lat.QuantileMs(tail_p / 100.0));
  report.E2e("ops_per_s", double(completed) / best_loop_s);
  report.E2e("olap_p50_ms", olap_lat.MedianMs());
  report.E2e("write_p50_ms", write_lat.MedianMs());
  report.E2e("maint_s", maint.SumMs() / 1e3);
  report.E2e("sim_us_per_op", sim_us);
  report.E2e("dram_per_user_byte", dram_ratio);
  report.E2e("gap_pct", gap_pct);
  report.E2e("rss_mb", PeakRssMb());

  report.Layer("tiering.evictions", double(evictions));
  report.Layer("core.retier_steps", double(steps));
  report.Layer("core.retier_bytes", double(moved_bytes));
  if (traced) {
    report.Layer("serving.write_gate_us", gate_lat.MedianMs() * 1e3);
    report.Layer("txn.begin_commit_us", begin_commit.MedianMs() * 1e3);
    report.Layer("query.exec_us.oltp", exec_oltp.MedianMs() * 1e3);
    report.Layer("query.exec_us.olap", exec_olap.MedianMs() * 1e3);
    report.Layer("core.record_us", record_us.MedianMs() * 1e3);
    report.Layer("core.merge_ms_per_krow",
                 merged_rows == 0.0 ? 0.0 : merge_ns / 1e6 / (merged_rows / 1e3));
    report.Layer("core.migrate_ms_per_mb",
                 migrate_bytes == 0.0 ? 0.0
                                      : migrate_ns / 1e6 / (migrate_bytes / 1e6));
    report.Layer("core.retier_eval_ms", eval_ns / 1e6);
    replay.Emit(&report);
  }

  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%g", tail_p);
  report.Record("tail_percentile", buf);
  report.Record("ops_per_pass", std::to_string(n));
  report.Record("queries_per_pass", std::to_string(query_lat.size()));
  report.Record("olap_queries_per_pass", std::to_string(olap_lat.size()));
  report.Record("insert_txns_per_pass", std::to_string(write_lat.size()));
  report.Record("ticks_per_pass", std::to_string(ticks));
  report.Record("plans_per_pass", std::to_string(plans));
  std::snprintf(buf, sizeof(buf), "%.4f", regret_pct);
  report.Record("final_regret_pct", buf);
  report.Record("rows", std::to_string(kRows));
  return report;
}

}  // namespace perfbench
