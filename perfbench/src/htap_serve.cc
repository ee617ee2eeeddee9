// htap_serve: open loop. One generator thread paces a seeded Poisson arrival
// schedule of TPC-C deliveries (OLTP class), CH-19 queries (OLAP class) and
// new-order inserts against a SessionManager with two sessions; two
// completion threads per class await the results (README.md §htap_serve).
// Latency is timed from each op's due time. Admission, dispatch, private
// cold caches, the composite-index probe, tuple reconstruction and the
// serving write gate do the work.

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "core/tiered_table.h"
#include "serving/session_manager.h"
#include "workload/tpcc.h"

namespace perfbench {
namespace {

using namespace hytap;

constexpr uint32_t kWarehouses = 4;
constexpr uint32_t kDistricts = 10;
constexpr uint32_t kOrders = 200;
constexpr uint32_t kItems = 1000;
/// Fixed offered load (not calibrated per run), low enough that a slower
/// host does not turn into queue growth (README.md §htap_serve).
constexpr double kRate = 2000.0;  // ops per second
constexpr double kCh19Share = 0.10;
constexpr double kInsertShare = 0.08;
constexpr size_t kSessions = 2;
/// The generator sleeps until this close to an op's due time, then spins.
constexpr uint64_t kSpinNs = 50'000;
/// The schedule runs in kSegments segments; after each one the serving
/// layer drains and the delta is merged in a pause of the schedule, so the
/// merges are measured as maint_s and stay out of every op's latency.
constexpr size_t kSegments = 3;

enum class Kind { kDelivery, kCh19, kInsert };

struct Op {
  Kind kind = Kind::kDelivery;
  Query query;
  std::vector<Row> rows;  // kInsert: the new order's lines, one transaction
  uint64_t due_ns = 0;  // offset from the schedule origin
  /// Delivery: order lines; CH-19: qualifying rows (at this op's snapshot).
  size_t expected = 0;
};

struct Outcome {
  Status status;
  size_t rows = 0;
  uint64_t examined = 0;  // sum of candidate_trace
  uint64_t ticket = 0;
  size_t delta_limit = 0;
  uint64_t due_ns = 0;         // steady clock the op was due at
  uint64_t submit_ns = 0;      // steady clock at Submit
  uint64_t done_ns = 0;        // steady clock at completion
  int32_t span = -1;
  PositionList positions;
  bool admitted = false;
  IoStats io;
  // Traced pass: the direct execution of the same query.
  uint64_t direct_ns = 0;
  uint64_t direct_sim_ns = 0;
  PhaseVector phases;
  QueryObservation obs;
  bool obs_filled = false;
};

uint64_t OrderKey(int32_t w, int32_t d, int32_t o) {
  return (uint64_t(w) << 40) | (uint64_t(d) << 24) | uint64_t(o);
}

struct Setup {
  std::unique_ptr<TieredTable> table;
  std::vector<int32_t> w, item, quantity;     // oracle columns (base rows)
  std::unordered_map<uint64_t, size_t> lines;  // (w,d,o) -> base lines
  size_t rows = 0;
};

Setup Build(uint64_t seed) {
  Setup s;
  OrderlineParams params;
  params.warehouses = kWarehouses;
  params.districts_per_warehouse = kDistricts;
  params.orders_per_district = kOrders;
  params.items = kItems;
  params.seed = kDataSeed;
  TieredTableOptions options;
  options.device = DeviceKind::kCssd;
  options.timing_seed = seed;
  s.table = std::make_unique<TieredTable>("orderline", OrderlineSchema(),
                                          options);
  {
    const std::vector<Row> rows = GenerateOrderlineRows(params);
    s.rows = rows.size();
    for (const Row& row : rows) {
      s.w.push_back(row[kOlWId].AsInt32());
      s.item.push_back(row[kOlIId].AsInt32());
      s.quantity.push_back(row[kOlQuantity].AsInt32());
      ++s.lines[OrderKey(row[kOlWId].AsInt32(), row[kOlDId].AsInt32(),
                         row[kOlOId].AsInt32())];
    }
    s.table->Load(rows);
  }
  Table& table = s.table->table();
  if (!table.CreateIndex({kOlWId, kOlDId, kOlOId}).ok()) {
    s.table.reset();
    return s;
  }
  table.BuildStatistics();
  // Table III at w = 0.2: primary key and ol_i_id in DRAM, payload on CSSD.
  std::vector<bool> placement(10, false);
  for (ColumnId c : OrderlinePrimaryKey()) placement[c] = true;
  placement[kOlIId] = true;
  if (!s.table->ApplyPlacement(placement).ok()) s.table.reset();
  return s;
}

Row MakeLine(int32_t w, int32_t d, int32_t o, int32_t number, Rng& rng) {
  Row row;
  row.emplace_back(o);
  row.emplace_back(d);
  row.emplace_back(w);
  row.emplace_back(number);
  row.emplace_back(int32_t(1 + rng.NextBounded(kItems)));
  row.emplace_back(w);
  row.emplace_back(int64_t(1514764800 + rng.NextBounded(86400 * 90)));
  row.emplace_back(int32_t(1 + rng.NextBounded(10)));
  row.emplace_back(rng.NextDouble(0.01, 9999.99));
  row.emplace_back(std::string("dist-info-") +
                   std::to_string(rng.NextBounded(100000)));
  return row;
}

/// The whole op list, arrival schedule included, fixed before timing.
std::vector<Op> MakeOps(size_t n, uint64_t seed, const Setup& s) {
  Rng rng(seed * 0xD1B54A32D192ED03ull + 3);
  // Stratified draws (see Strata): every seed gets the same op shares and
  // the same spread of CH-19 range widths, so the cost mix barely depends on
  // the seed.
  Strata kind(n, rng);
  const size_t ch19_ops = size_t(double(n) * kCh19Share) + 1;
  Strata item_width(ch19_ops, rng), quantity_width(ch19_ops, rng);
  std::vector<Op> ops(n);
  std::unordered_map<uint64_t, size_t> added;  // (w,d,o) -> inserted lines
  std::vector<uint64_t> new_orders;            // keys of inserted orders
  std::vector<int32_t> next_order(kWarehouses * kDistricts, int32_t(kOrders));
  std::vector<Row> inserted;
  double at = 0.0;
  for (size_t i = 0; i < n; ++i) {
    Op& op = ops[i];
    at += -std::log(1.0 - rng.NextDouble()) / kRate * 1e9;
    op.due_ns = uint64_t(at);
    const double u = kind.Next(rng);
    const int32_t w = int32_t(1 + rng.NextBounded(kWarehouses));
    const int32_t d = int32_t(1 + rng.NextBounded(kDistricts));
    if (u < kCh19Share) {
      op.kind = Kind::kCh19;
      const int32_t lo = int32_t(1 + rng.NextBounded(kItems - 100));
      const int32_t hi = lo + int32_t(100.0 * item_width.Next(rng));
      const int32_t qlo = int32_t(1 + rng.NextBounded(5));
      const int32_t qhi = qlo + int32_t(5.0 * quantity_width.Next(rng));
      op.query = ChQuery19(w, lo, hi, qlo, qhi);
      size_t count = 0;
      for (size_t r = 0; r < s.rows; ++r) {
        count += s.w[r] == w && s.item[r] >= lo && s.item[r] <= hi &&
                 s.quantity[r] >= qlo && s.quantity[r] <= qhi;
      }
      for (const Row& row : inserted) {
        const int32_t it = row[kOlIId].AsInt32();
        const int32_t qt = row[kOlQuantity].AsInt32();
        count += row[kOlWId].AsInt32() == w && it >= lo && it <= hi &&
                 qt >= qlo && qt <= qhi;
      }
      op.expected = count;
    } else if (u < kCh19Share + kInsertShare) {
      op.kind = Kind::kInsert;
      // A new order with 5-10 lines, inserted in one transaction.
      const int32_t o = ++next_order[size_t((w - 1) * kDistricts + (d - 1))];
      const size_t lines = 5 + size_t(rng.NextBounded(6));
      for (size_t l = 1; l <= lines; ++l) {
        op.rows.push_back(MakeLine(w, d, o, int32_t(l), rng));
        inserted.push_back(op.rows.back());
      }
      const uint64_t key = OrderKey(w, d, o);
      added[key] = lines;
      new_orders.push_back(key);
    } else {
      op.kind = Kind::kDelivery;
      int32_t dw = w, dd = d, o = int32_t(1 + rng.NextBounded(kOrders));
      if (!new_orders.empty() && rng.NextBool(0.2)) {
        // Read back a recently inserted order: acknowledged inserts must be
        // visible to later queries.
        const uint64_t key = new_orders[new_orders.size() - 1 -
                                        rng.NextBounded(std::min<size_t>(
                                            new_orders.size(), 64))];
        dw = int32_t(key >> 40);
        dd = int32_t((key >> 24) & 0xFFFF);
        o = int32_t(key & 0xFFFFFF);
      }
      op.query = DeliveryQuery(dw, dd, o);
      const uint64_t key = OrderKey(dw, dd, o);
      auto base = s.lines.find(key);
      auto extra = added.find(key);
      op.expected = (base == s.lines.end() ? 0 : base->second) +
                    (extra == added.end() ? 0 : extra->second);
    }
  }
  return ops;
}

/// Completion side of one query class: kSessions threads take the class's
/// handles in submission order, each awaiting one and stamping its
/// completion time. Within a class, queries are dispatched in submission
/// order and at most kSessions run at once, so every running query has a
/// thread waiting on it: a query that finishes before an earlier one is
/// stamped when it finishes, not when the earlier one does. The threads
/// block in Await, as a client would, instead of spinning.
class Completer {
 public:
  explicit Completer(std::vector<Outcome>* outcomes) : outcomes_(outcomes) {
    for (size_t t = 0; t < kSessions; ++t) {
      threads_.emplace_back([this] { Loop(); });
    }
  }
  ~Completer() { Finish(); }
  Completer(const Completer&) = delete;
  Completer& operator=(const Completer&) = delete;

  void Push(size_t op, SessionHandle handle) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back(op, std::move(handle));
    }
    cv_.notify_one();
  }
  /// Blocks until every pushed op has been stamped.
  void WaitIdle() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return queue_.empty() && busy_ == 0; });
  }
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  void Loop() {
    for (;;) {
      std::pair<size_t, SessionHandle> item;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = std::move(queue_.front());
        queue_.pop_front();
        ++busy_;
      }
      QueryResult r = item.second->Await();
      const uint64_t now = NowNs();
      Outcome& out = (*outcomes_)[item.first];
      out.done_ns = now;
      out.status = r.status;
      out.rows = r.positions.size();
      for (size_t c : r.candidate_trace) out.examined += c;
      out.io = r.io;
      out.positions = std::move(r.positions);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --busy_;
      }
      cv_.notify_all();
    }
  }

  std::vector<Outcome>* outcomes_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::pair<size_t, SessionHandle>> queue_;
  bool done_ = false;
  size_t busy_ = 0;  // ops between dequeue and their stamp
  std::vector<std::thread> threads_;  // declared last: started after the
                                      // members they use
};

void WaitUntil(uint64_t due) {
  uint64_t now = NowNs();
  if (now + kSpinNs < due) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - kSpinNs - now));
  }
  while (NowNs() < due) {
  }
}

/// Traced pass only: executes an op's query directly with its session's
/// delta bound, the same cold private cache size and the read stream of the
/// session's ticket, so its simulated cost must equal the served one. Runs on
/// the generator thread, the table's only writer, so no insert races it.
void DirectExecute(TieredTable& table, const Query& query, size_t frames,
                   Outcome* out, Tracer* tracer, size_t op) {
  BufferManager cache(&table.store(), frames);
  SecondaryStore::ReadStream stream = table.store().MakeStream(out->ticket);
  cache.set_stream(&stream);
  ExecOptions opts;
  opts.buffers = &cache;
  opts.delta_limit = out->delta_limit;
  opts.observation = &out->obs;
  opts.observation_filled = &out->obs_filled;
  opts.phases = &out->phases;
  Transaction txn = table.Begin();
  const uint64_t e0 = NowNs();
  const QueryResult r = table.executor().Execute(txn, query, opts);
  const uint64_t e1 = NowNs();
  table.Commit(&txn);
  tracer->Add("query.Execute", uint32_t(op), out->span, e0, e1);
  out->direct_ns = e1 - e0;
  out->direct_sim_ns = r.io.TotalNs();
}

}  // namespace

Report RunHtapServe(const RunConfig& config) {
  Report report;
  Tracer* tracer = config.tracer;
  const bool traced = tracer->on();
  const size_t n = std::max<size_t>(100, size_t(kRate * config.pass_seconds));

  SessionOptions so;
  so.max_sessions = kSessions;
  so.session_frames = 64;
  // Timed in every pass, in op order (best per op over the passes); `maint`
  // holds one sample per merge.
  Samples delivery, ch19, write_lat, maint, gen_lag;
  // Traced only (one pass).
  Samples submit_lat, gate_lat, begin_commit, overhead, exec_oltp, exec_olap,
      record_us;
  StorageReplay replay;
  std::vector<double> setup_s, delivered_per_s, measured_s;
  uint64_t rejected = 0, shed = 0, merge_ns = 0, merged_rows = 0;
  double sim_us = 0.0, dram_ratio = 0.0, gap_pct = 0.0;
  size_t rows = 0, inserts = 0;
  // Fine-grained sleeps for the pacing thread (the default 50 us timer
  // slack would make it wake late or spin long).
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  for (size_t pass = 0; pass < config.passes; ++pass) {
    NextPass({&delivery, &ch19, &write_lat, &maint, &gen_lag});
    const uint64_t setup_start = NowNs();
    Setup s = Build(config.seed);
    if (s.table != nullptr) s.table->EnableServing(so);
    setup_s.push_back(double(NowNs() - setup_start) / 1e9);
    if (s.table == nullptr) {
      report.Error("set-up failed");
      return report;
    }
    TieredTable& table = *s.table;
    rows = s.rows;

    const std::vector<Op> ops = MakeOps(n, config.seed, s);
    {
      Rng rng(config.seed + 99);
      Transaction txn = table.Begin();
      for (size_t i = 0; i < 400; ++i) {
        const Query q =
            i % 50 == 0
                ? ChQuery19(1, 1, 100, 1, 5)
                : DeliveryQuery(int32_t(1 + rng.NextBounded(kWarehouses)),
                                int32_t(1 + rng.NextBounded(kDistricts)),
                                int32_t(1 + rng.NextBounded(kOrders)));
        (void)table.ExecuteUnrecorded(txn, q);
      }
      table.Commit(&txn);
    }

    std::vector<Outcome> outcomes(n);
    const uint64_t t_start = NowNs() + 1'000'000;
    uint64_t t0 = t_start;  // schedule origin, moved past every merge pause
    uint64_t paused_ns = 0;
    // Drains serving (and, traced, runs the segment's CH-19 queries directly
    // while their delta bounds still hold), then merges the delta.
    const auto merge = [&](Completer* oltp, Completer* olap, size_t end) {
      table.serving()->Drain();
      oltp->WaitIdle();
      olap->WaitIdle();
      for (size_t j = 0; traced && j < end; ++j) {
        Outcome& o = outcomes[j];
        if (ops[j].kind == Kind::kCh19 && o.admitted && o.status.ok() &&
            o.direct_ns == 0) {
          DirectExecute(table, ops[j].query, so.session_frames, &o, tracer, j);
        }
      }
      merged_rows += table.table().delta_row_count();
      const int32_t span = tracer->Open("core.MergeDelta", uint32_t(end), -1);
      const uint64_t m0 = NowNs();
      const Status status = table.MergeDelta();
      const uint64_t m1 = NowNs();
      maint.Add(m1 - m0);
      merge_ns += m1 - m0;
      tracer->Close(span);
      if (!status.ok()) report.Error("merge failed: " + status.ToString());
    };
    {
      Completer oltp(&outcomes);
      Completer olap(&outcomes);
      const size_t segment = (n + kSegments - 1) / kSegments;
      for (size_t i = 0; i < n; ++i) {
        if (i > 0 && i % segment == 0) {
          const uint64_t p0 = NowNs();
          merge(&oltp, &olap, i);
          const uint64_t pause = NowNs() - p0;
          t0 += pause;
          paused_ns += pause;
        }
        const Op& op = ops[i];
        const uint64_t due = t0 + op.due_ns;
        WaitUntil(due);
        const uint64_t start = NowNs();
        gen_lag.Add(start - due);
        Outcome& out = outcomes[i];
        out.due_ns = due;
        if (op.kind == Kind::kInsert) {
          const int32_t span = tracer->Open("bench.write", uint32_t(i), -1);
          Transaction txn = table.Begin();
          const uint64_t w1 = NowNs();
          Status status;
          for (const Row& row : op.rows) {
            const uint64_t g0 = NowNs();
            if (status.ok()) status = table.Insert(txn, row);
            const uint64_t g1 = NowNs();
            tracer->Add("serving.WriteGate", uint32_t(i), span, g0, g1);
            gate_lat.Add(g1 - g0);
          }
          const uint64_t w2 = NowNs();
          table.Commit(&txn);
          const uint64_t w3 = NowNs();
          tracer->Add("txn.Begin", uint32_t(i), span, start, w1);
          tracer->Add("txn.Commit", uint32_t(i), span, w2, w3);
          tracer->Close(span);
          begin_commit.Add((w1 - start) + (w3 - w2));
          out.status = status;
          out.done_ns = w3;
          continue;
        }
        SubmitOptions opts;
        opts.query_class =
            op.kind == Kind::kDelivery ? QueryClass::kOltp : QueryClass::kOlap;
        out.delta_limit = table.table().delta_row_count();
        out.span = tracer->Open("bench.op", uint32_t(i), -1);
        const uint64_t s0 = NowNs();
        auto handle = table.Submit(op.query, opts);
        const uint64_t submitted = NowNs();
        tracer->Add("serving.Submit", uint32_t(i), out.span, s0, submitted);
        submit_lat.Add(submitted - s0);
        out.submit_ns = s0;
        if (!handle.ok()) {
          ++rejected;
          out.status = handle.status();
          out.done_ns = submitted;
          continue;
        }
        out.admitted = true;
        out.ticket = (*handle)->ticket();
        (op.kind == Kind::kDelivery ? oltp : olap).Push(i, *handle);
        // Deliveries run directly right after submission, against the state
        // the session sees; CH-19 queries (milliseconds, which would stall
        // the schedule) run directly in the drained pause ending their
        // segment.
        if (traced && op.kind == Kind::kDelivery) {
          DirectExecute(table, op.query, so.session_frames, &out, tracer, i);
        }
      }
      merge(&oltp, &olap, n);
    }  // joins the completion threads
    uint64_t t_end = t_start;
    for (const Outcome& out : outcomes) t_end = std::max(t_end, out.done_ns);
    report.attempted += n;
    gap_pct = PlacementGapPct(table);

    QueryTotals totals;
    uint64_t delivered = 0, delivery_ns = 0;
    for (size_t i = 0; i < n; ++i) {
      const Op& op = ops[i];
      Outcome& out = outcomes[i];
      const uint64_t latency = out.done_ns - out.due_ns;
      if (out.admitted) {
        // Submit to completion is time spent in the serving layer, the
        // session's own execution included.
        tracer->Add("serving.Await", uint32_t(i), out.span, out.submit_ns,
                    out.done_ns);
      }
      tracer->CloseAt(out.span, out.done_ns);
      const bool ok = out.status.ok();
      if (!ok) {
        ++report.failed;
        if (out.status.code() == StatusCode::kDeadlineExceeded) ++shed;
      }
      switch (op.kind) {
        case Kind::kInsert:
          if (ok) {
            write_lat.Add(latency);
          } else {
            write_lat.AddMiss();
            report.Error("insert " + std::to_string(i) + " failed");
          }
          continue;
        case Kind::kDelivery:
          ok ? delivery.Add(latency) : delivery.AddMiss();
          delivered += ok;
          delivery_ns += ok ? latency : 0;
          break;
        case Kind::kCh19:
          ok ? ch19.Add(latency) : ch19.AddMiss();
          break;
      }
      if (!out.admitted) continue;
      ++totals.queries;
      totals.sim_ns += out.io.TotalNs();
      totals.page_reads += out.io.page_reads;
      totals.cache_hits += out.io.cache_hits;
      totals.retries += out.io.retries;
      totals.result_rows += out.rows;
      totals.examined += out.examined;
      if (ok && out.rows != op.expected) {
        report.Error("op " + std::to_string(i) + ": " +
                     (op.kind == Kind::kDelivery ? "delivery" : "CH-19") +
                     " returned " + std::to_string(out.rows) +
                     " rows, expected " + std::to_string(op.expected));
      }
    }
    delivered_per_s.push_back(double(delivered) /
                              (double(t_end - t_start - paused_ns) / 1e9));
    // The schedule fixes the open loop's wall time, so tracing overhead
    // shows in the deliveries' summed latency instead.
    measured_s.push_back(double(delivery_ns) / 1e9);

    // Traced only: serving overhead against the direct executions, the
    // observation hand-off timed on its own, and the storage-level replays
    // of delivered rows.
    for (size_t i = 0; traced && i < n; ++i) {
      Outcome& out = outcomes[i];
      if (!out.admitted || !out.status.ok()) continue;
      const Query& q = ops[i].query;
      (ops[i].kind == Kind::kDelivery ? exec_oltp : exec_olap)
          .Add(out.direct_ns);
      const uint64_t served = out.done_ns - out.submit_ns;
      overhead.Add(served > out.direct_ns ? served - out.direct_ns : 0);
      for (size_t p = 0; p < kQueryPhaseCount; ++p) {
        totals.phases.ns[p] += out.phases.ns[p];
      }
      if (out.direct_sim_ns != out.io.TotalNs()) {
        report.Error("op " + std::to_string(i) +
                     ": direct execution's simulated cost differs from the "
                     "served one");
      }
      // After gap_pct was taken: recording again only feeds the monitor
      // and plan cache, which nothing reads any more.
      const uint64_t r0 = NowNs();
      table.RecordExecution(q, out.obs, out.obs_filled);
      const uint64_t r1 = NowNs();
      tracer->Add("core.RecordExecution", uint32_t(i), out.span, r0, r1);
      record_us.Add(r1 - r0);
      if (ops[i].kind == Kind::kDelivery) {
        replay.Reconstruct(table.table(), out.positions,
                           1'000'000'000 + out.ticket, tracer, uint32_t(i),
                           out.span);
      }
    }

    inserts = 0;
    for (const Op& op : ops) inserts += op.rows.size();
    {
      Query all_rows;
      all_rows.predicates = {Predicate::AtLeast(kOlWId, Value(int32_t{1}))};
      all_rows.aggregates = {Aggregate::Count()};
      Transaction r = table.Begin();
      const QueryResult count = table.ExecuteUnrecorded(r, all_rows);
      table.Commit(&r);
      if (!count.status.ok() || count.aggregate_values.empty() ||
          count.aggregate_values[0].AsInt64() != int64_t(s.rows + inserts)) {
        report.Error("acknowledged inserts not all visible after merge");
      }
    }

    sim_us = totals.queries == 0
                 ? 0.0
                 : double(totals.sim_ns) / double(totals.queries) / 1e3;
    dram_ratio = DramPerUserByte(table.table());
    report.Det("sim_us_per_op", sim_us);
    report.Det("dram_per_user_byte", dram_ratio);
    report.Det("gap_pct", gap_pct);
    ReportQueryTotals(totals, &report, traced);
  }
  CheckAligned({&delivery, &ch19, &write_lat, &maint, &gen_lag}, &report);
  report.measured_s = Median(measured_s);

  // Misses count over the whole pass: a failed, refused or shed delivery
  // in any pass is a miss of every percentile.
  const double tail_p = TailPercentile(delivery.size());
  report.E2e("setup_s", Median(setup_s));
  report.E2e("p50_ms", delivery.MedianMs());
  report.E2e("tail_ms", delivery.QuantileMs(tail_p / 100.0));
  report.E2e("ops_per_s", Median(delivered_per_s));
  report.E2e("olap_p50_ms", ch19.MedianMs());
  report.E2e("write_p50_ms", write_lat.MedianMs());
  report.E2e("maint_s", maint.SumMs() / 1e3);
  report.E2e("sim_us_per_op", sim_us);
  report.E2e("dram_per_user_byte", dram_ratio);
  report.E2e("gap_pct", gap_pct);
  report.E2e("rss_mb", PeakRssMb());

  // Timing-dependent, so not in the determinism check. No op carries a
  // deadline, so nothing is shed on this workload; shed stays 0 by design.
  report.Layer("serving.rejected", double(rejected));
  report.Layer("serving.shed", double(shed));
  if (traced) {
    report.Layer("serving.submit_us", submit_lat.MedianMs() * 1e3);
    report.Layer("serving.overhead_us.p50", overhead.QuantileMs(0.5) * 1e3);
    report.Layer("serving.overhead_us.p99", overhead.QuantileMs(0.99) * 1e3);
    report.Layer("serving.write_gate_us", gate_lat.MedianMs() * 1e3);
    report.Layer("core.record_us", record_us.MedianMs() * 1e3);
    report.Layer("query.exec_us.oltp", exec_oltp.MedianMs() * 1e3);
    report.Layer("query.exec_us.olap", exec_olap.MedianMs() * 1e3);
    report.Layer("txn.begin_commit_us", begin_commit.MedianMs() * 1e3);
    report.Layer("core.merge_ms_per_krow",
                 merged_rows == 0
                     ? 0.0
                     : double(merge_ns) / 1e6 / (double(merged_rows) / 1e3));
    replay.Emit(&report);
  }

  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%g", tail_p);
  report.Record("tail_percentile", buf);
  // The delivery tail's shape: p99 should lie inside the population delayed
  // by write-gate stalls, not on its edge.
  std::string shape;
  for (double q : {0.9, 0.95, 0.98, 0.99, 0.995}) {
    std::snprintf(buf, sizeof(buf), "%sp%g %.3f", shape.empty() ? "" : ", ",
                  q * 100.0, delivery.QuantileMs(q));
    shape += buf;
  }
  report.Record("delivery_tail_ms", shape);
  report.Record("ops_per_pass", std::to_string(n));
  report.Record("deliveries_per_pass", std::to_string(delivery.size()));
  report.Record("ch19_per_pass", std::to_string(ch19.size()));
  report.Record("inserted_rows_per_pass", std::to_string(inserts));
  report.Record("offered_ops_per_s", std::to_string(kRate));
  std::snprintf(buf, sizeof(buf), "%.3f", gen_lag.MedianMs());
  report.Record("generator_lag_p50_ms", buf);
  std::snprintf(buf, sizeof(buf), "%.3f",
                gen_lag.QuantileMs(TailPercentile(gen_lag.size()) / 100.0));
  report.Record("generator_lag_tail_ms", buf);
  report.Record("rows", std::to_string(rows));
  return report;
}

}  // namespace perfbench
