// bench_serving: inter-query parallelism of the serving front end
// (DESIGN.md §15).
//
// Usage: bench_serving [--small]
//
// A saturated burst of mixed traffic — TPC-C delivery probes (OLTP class)
// against an orderline table and BSEG aggregate scans (OLAP class) against
// an enterprise table — executed with four concurrent sessions vs a
// 1-session submit-and-await serial baseline. Gate: speedup >= 2x
// (enforced on hosts with >= 4 cores, report-only on smaller hosts — the
// sessions are real OS threads). Latency under open-loop load is measured
// by perfbench's htap_serve workload; admission accounting and serial-replay
// equivalence are checked by session_test.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "core/tiered_table.h"
#include "serving/session_manager.h"
#include "workload/enterprise.h"
#include "workload/tpcc.h"

using namespace hytap;

namespace {

struct Config {
  int ol_warehouses = 2;
  int ol_districts = 2;
  int ol_orders = 40;
  size_t bseg_rows = 6000;
  size_t bseg_cols = 16;
  size_t burst_queries = 160;
  size_t max_sessions = 4;
  uint64_t seed = 42;
};

Config SmallConfig() {
  Config c;
  c.ol_orders = 20;
  c.bseg_rows = 3000;
  c.burst_queries = 96;
  return c;
}

std::unique_ptr<TieredTable> MakeOrderlineTable(const Config& config) {
  OrderlineParams params;
  params.warehouses = config.ol_warehouses;
  params.districts_per_warehouse = config.ol_districts;
  params.orders_per_district = config.ol_orders;
  TieredTableOptions options;
  options.device = DeviceKind::kXpoint;
  options.timing_seed = config.seed;
  auto table = std::make_unique<TieredTable>("orderline", OrderlineSchema(),
                                             options);
  table->Load(GenerateOrderlineRows(params));
  return table;
}

std::unique_ptr<TieredTable> MakeBsegTable(const Config& config) {
  EnterpriseProfile profile = BsegProfile();
  profile.attribute_count = config.bseg_cols;
  TieredTableOptions options;
  options.device = DeviceKind::kCssd;
  options.timing_seed = config.seed;
  auto table = std::make_unique<TieredTable>(
      "bseg", MakeEnterpriseSchema(profile), options);
  table->Load(GenerateEnterpriseRows(profile, config.bseg_rows, config.seed));
  return table;
}

Query OltpQuery(const Config& config, Rng& rng) {
  return DeliveryQuery(
      1 + int32_t(rng.NextBounded(uint64_t(config.ol_warehouses))),
      1 + int32_t(rng.NextBounded(uint64_t(config.ol_districts))),
      1 + int32_t(rng.NextBounded(uint64_t(config.ol_orders))));
}

Query OlapQuery(const Config& config, Rng& rng) {
  Query q;
  const ColumnId filter = ColumnId(rng.NextBounded(config.bseg_cols));
  q.predicates.push_back(Predicate::Between(filter, Value(int32_t{0}),
                                            Value(int32_t{60})));
  const ColumnId agg =
      ColumnId((filter + 1 + rng.NextBounded(config.bseg_cols - 1)) %
               config.bseg_cols);
  q.aggregates.push_back(Aggregate::Sum(agg));
  q.aggregates.push_back(Aggregate::Count());
  return q;
}

struct BurstResult {
  double serial_s = 0;
  double concurrent_s = 0;
  double speedup = 0;
};

BurstResult RunBurstSection(const Config& config) {
  // DRAM-resident placements: the burst measures CPU parallelism across
  // sessions (each session is an OS thread), not secondary-store bandwidth.
  auto run = [&](size_t max_sessions, bool serial) {
    auto orderline = MakeOrderlineTable(config);
    auto bseg = MakeBsegTable(config);
    SessionOptions so;
    so.max_sessions = max_sessions;
    so.queue_capacity = config.burst_queries;
    SessionManager& oltp_mgr = orderline->EnableServing(so);
    SessionManager& olap_mgr = bseg->EnableServing(so);
    Rng rng(config.seed + 2);
    std::vector<std::pair<bool, Query>> burst;
    for (size_t i = 0; i < config.burst_queries; ++i) {
      const bool oltp = i % 2 == 0;
      burst.emplace_back(oltp, oltp ? OltpQuery(config, rng)
                                    : OlapQuery(config, rng));
    }
    bench::Stopwatch watch;
    std::vector<SessionHandle> handles;
    for (auto& [oltp, q] : burst) {
      SubmitOptions opts;
      opts.query_class = oltp ? QueryClass::kOltp : QueryClass::kOlap;
      auto s = oltp ? oltp_mgr.Submit(q, opts) : olap_mgr.Submit(q, opts);
      if (!s.ok()) std::abort();
      if (serial) {
        (*s)->Await();
      } else {
        handles.push_back(*s);
      }
    }
    for (const SessionHandle& s : handles) s->Await();
    oltp_mgr.Drain();
    olap_mgr.Drain();
    return watch.Seconds();
  };

  BurstResult out;
  out.serial_s = run(1, /*serial=*/true);
  out.concurrent_s = run(config.max_sessions, /*serial=*/false);
  out.speedup = out.concurrent_s > 0 ? out.serial_s / out.concurrent_s : 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) {
      small = true;
      config = SmallConfig();
    }
  }
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("bench_serving%s: %u hardware threads, %zu sessions\n",
              small ? " --small" : "", cores, config.max_sessions);

  bench::PrintHeader("inter-query parallelism (saturated burst)");
  // An untimed first burst warms the process (worker threads' allocator
  // arenas, heap pages) so that the timed one measures parallelism, not
  // first-touch costs that only its concurrent half would pay.
  (void)RunBurstSection(config);
  const BurstResult burst = RunBurstSection(config);
  const bool enforce_speedup = cores >= 4;
  std::printf("serial %.3fs, %zu sessions %.3fs, speedup %.2fx%s\n",
              burst.serial_s, config.max_sessions, burst.concurrent_s,
              burst.speedup,
              enforce_speedup ? "" : " (report-only: <4 cores)");

  bool ok = true;
  if (enforce_speedup && burst.speedup < 2.0) {
    std::fprintf(stderr, "FAIL: burst speedup %.2fx < 2x\n", burst.speedup);
    ok = false;
  }
  std::printf("serving self-check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
