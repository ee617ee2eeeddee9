// advise_large: closed loop, one client, the placement advisor on a
// multi-tenant selection instance of 10^5 (column, tenant) items
// (README.md §advise_large; the paper's Table II axis). Each op solves one
// budget of a fixed sweep with SelectExplicit and SelectGreedyMarginal; every
// kUpdateEvery-th op re-weights a block of query templates and rebuilds the
// cost model (a workload update), and every kExactEvery-th op checks both
// heuristics against SelectIntegerOptimal at the op's budget on each
// instance of a fixed reference suite of Example-1 instances. No table.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "selection/cost_model.h"
#include "selection/selectors.h"
#include "workload/example1.h"

namespace perfbench {
namespace {

using namespace hytap;

constexpr size_t kTenants = 2000;
constexpr size_t kColumnsPerTenant = 50;
constexpr size_t kQueriesPerTenant = 20;
constexpr double kOpsPerSecond = 25.0;
constexpr size_t kExactEvery = 5;
/// The reference suite: Example-1 instances (paper §III-C) with N = 200
/// columns and Q = 2000 queries. The suite is the same for every --seed, so
/// gap_pct measures the heuristics, not the luck of one instance; these
/// seeds solve exactly within a few hundred ms at every budget of the sweep.
constexpr uint64_t kSuiteSeeds[] = {1, 3, 4, 8};
constexpr size_t kSuiteColumns = 200;
constexpr size_t kUpdateEvery = 4;
constexpr size_t kBudgetPoints = 19;
constexpr size_t kUpdateBlock = 400;  // templates re-weighted per update
/// Instance generation takes milliseconds, so its median needs more draws:
/// each pass generates its instance this many times.
constexpr size_t kSetupsPerPass = 3;

/// Relative DRAM budget of op i: a fixed sweep over [0.05, 0.95], visited
/// in a scrambled order.
double BudgetShare(size_t i) {
  return 0.05 + 0.9 * double((i * 7) % kBudgetPoints) /
                    double(kBudgetPoints - 1);
}

double ObjectiveGapPct(double heuristic, double exact) {
  return exact > 0.0 ? 100.0 * (heuristic - exact) / exact : 0.0;
}

}  // namespace

Report RunAdviseLarge(const RunConfig& config) {
  Report report;
  Tracer* tracer = config.tracer;
  const bool traced = tracer->on();
  const ScanCostParams params;
  const size_t n = std::max<size_t>(4 * kExactEvery,
                                    size_t(kOpsPerSecond * config.pass_seconds));

  Samples budget_lat, exact_lat, update_lat;
  std::vector<double> setup_s, loop_s;
  double model_ms = 0.0, explicit_ms = 0.0, greedy_ms = 0.0, bnb_ms = 0.0;
  uint64_t nodes = 0, pruned = 0;
  double sim_us = 0.0, dram_ratio = 0.0, gap_pct = 0.0;
  size_t gap_samples = 0, items = 0;
  for (size_t pass = 0; pass < config.passes; ++pass) {
    NextPass({&budget_lat, &exact_lat, &update_lat});
    Workload large;
    std::vector<Workload> suite;
    for (size_t k = 0; k < kSetupsPerPass; ++k) {
      large = Workload();
      suite.clear();
      const uint64_t start = NowNs();
      // The instance is fixed data, like the tables' (kDataSeed); --seed
      // drives the workload updates.
      large = GenerateMultiTenantWorkload(kTenants, kColumnsPerTenant,
                                          kQueriesPerTenant, kDataSeed);
      for (uint64_t seed : kSuiteSeeds) {
        Example1Params example;
        example.num_columns = kSuiteColumns;
        example.num_queries = 10 * kSuiteColumns;
        example.seed = seed;
        suite.push_back(GenerateExample1(example));
      }
      setup_s.push_back(double(NowNs() - start) / 1e9);
    }
    items = large.column_count();
    Rng rng(config.seed * 0x8EBC6AF09C88C6E3ull + 1);
    {
      // Warm-up, discarded.
      const SelectionProblem p =
          SelectionProblem::FromRelativeBudget(large, params, 0.5);
      (void)SelectExplicit(p);
      (void)SelectGreedyMarginal(p);
    }

    model_ms = explicit_ms = greedy_ms = bnb_ms = 0.0;
    nodes = pruned = 0;
    gap_samples = 0;
    double sim_sum = 0.0, dram_sum = 0.0, gap_sum = 0.0;
    double large_frequency = 0.0;
    for (const QueryTemplate& q : large.queries) large_frequency += q.frequency;

    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) {
      const double share = BudgetShare(i);
      if (i % kUpdateEvery == kUpdateEvery - 1) {
        // Workload update: re-weight a block of templates, re-price the
        // model.
        const int32_t span = tracer->Open("bench.write", uint32_t(i), -1);
        const uint64_t u0 = NowNs();
        const size_t first = size_t(rng.NextBounded(large.queries.size()));
        for (size_t k = 0; k < kUpdateBlock; ++k) {
          QueryTemplate& q = large.queries[(first + k) % large.queries.size()];
          large_frequency -= q.frequency;
          q.frequency = 1.0 + double(rng.NextBounded(8));
          large_frequency += q.frequency;
        }
        const int32_t m =
            tracer->Open("selection.CostModel", uint32_t(i), span);
        const CostModel model(large, params);
        tracer->Close(m);
        const uint64_t u1 = NowNs();
        tracer->Close(span);
        update_lat.Add(u1 - u0);
        if (!(model.AllSecondaryCost() > model.AllDramCost())) {
          report.Error("cost model out of order after update " +
                       std::to_string(i));
        }
      }

      const int32_t span = tracer->Open("bench.op", uint32_t(i), -1);
      const uint64_t b0 = NowNs();
      const SelectionProblem problem =
          SelectionProblem::FromRelativeBudget(large, params, share);
      const int32_t e =
          tracer->Open("selection.SelectExplicit", uint32_t(i), span);
      const SelectionResult xp = SelectExplicit(problem);
      tracer->Close(e);
      const int32_t g =
          tracer->Open("selection.SelectGreedyMarginal", uint32_t(i), span);
      const SelectionResult gr = SelectGreedyMarginal(problem);
      tracer->Close(g);
      const uint64_t b1 = NowNs();
      tracer->Close(span);
      budget_lat.Add(b1 - b0);
      model_ms += (xp.model_seconds + gr.model_seconds) * 1e3 / 2.0;
      explicit_ms += (xp.solve_seconds - xp.model_seconds) * 1e3;
      greedy_ms += (gr.solve_seconds - gr.model_seconds) * 1e3;
      sim_sum += xp.scan_cost / large_frequency / 1e3;
      dram_sum += xp.dram_bytes / large.TotalBytes();
      if (xp.dram_bytes > problem.budget_bytes * (1 + 1e-12) ||
          gr.dram_bytes > problem.budget_bytes * (1 + 1e-12)) {
        report.Error("op " + std::to_string(i) + ": heuristic over budget");
      }

      if (i % kExactEvery == 0) {
        // Check both heuristics against the exact optimum on every instance
        // of the reference suite at this op's relative budget.
        const int32_t v = tracer->Open("bench.verify", uint32_t(i), -1);
        uint64_t exact_ns = 0;
        for (const Workload& small : suite) {
          const SelectionProblem sp =
              SelectionProblem::FromRelativeBudget(small, params, share);
          const uint64_t x0 = NowNs();
          const int32_t x =
              tracer->Open("solver.SelectIntegerOptimal", uint32_t(i), v);
          const SelectionResult exact = SelectIntegerOptimal(sp);
          tracer->Close(x);
          exact_ns += NowNs() - x0;
          const SelectionResult sx = SelectExplicit(sp);
          const SelectionResult sg = SelectGreedyMarginal(sp);
          bnb_ms += (exact.solve_seconds - exact.model_seconds) * 1e3;
          nodes += exact.solver_nodes;
          pruned += exact.solver_pruned;
          const double tolerance = 1e-9 * std::abs(exact.objective);
          if (!exact.optimal ||
              exact.dram_bytes > sp.budget_bytes * (1 + 1e-12) ||
              sx.objective < exact.objective - tolerance ||
              sg.objective < exact.objective - tolerance) {
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "op %zu: exact %.17g (optimal %d) vs explicit %.17g "
                          "greedy %.17g",
                          i, exact.objective, int(exact.optimal), sx.objective,
                          sg.objective);
            report.Error(buf);
          }
          gap_sum += 0.5 * (ObjectiveGapPct(sx.objective, exact.objective) +
                            ObjectiveGapPct(sg.objective, exact.objective));
          ++gap_samples;
        }
        tracer->Close(v);
        exact_lat.Add(exact_ns);
      }
    }
    loop_s.push_back(double(NowNs() - t0) / 1e9);
    report.attempted += n;

    sim_us = sim_sum / double(n);
    dram_ratio = dram_sum / double(n);
    gap_pct = gap_sum / double(gap_samples);
    report.Det("sim_us_per_op", sim_us);
    report.Det("dram_per_user_byte", dram_ratio);
    report.Det("gap_pct", gap_pct);
    report.Det("solver.nodes", nodes);
    report.Det("solver.pruned", pruned);
  }
  CheckAligned({&budget_lat, &exact_lat, &update_lat}, &report);
  report.measured_s = Median(loop_s);

  const double tail_p = TailPercentile(budget_lat.size());
  report.E2e("setup_s", Median(setup_s));
  report.E2e("p50_ms", budget_lat.MedianMs());
  report.E2e("tail_ms", budget_lat.QuantileMs(tail_p / 100.0));
  // Budget ops per second of the client's best-case time, the workload
  // updates between them included (the exact checks are olap_p50_ms).
  report.E2e("ops_per_s",
             double(n) / ((budget_lat.SumMs() + update_lat.SumMs()) / 1e3));
  report.E2e("olap_p50_ms", exact_lat.MedianMs());
  report.E2e("write_p50_ms", update_lat.MedianMs());
  report.E2e("maint_s", update_lat.SumMs() / 1e3);
  report.E2e("sim_us_per_op", sim_us);
  report.E2e("dram_per_user_byte", dram_ratio);
  report.E2e("gap_pct", gap_pct);
  report.E2e("rss_mb", PeakRssMb());

  report.Layer("solver.nodes", double(nodes));
  report.Layer("solver.pruned", double(pruned));
  if (traced) {
    report.Layer("selection.model_ms", model_ms / double(n));
    report.Layer("selection.explicit_ms", explicit_ms / double(n));
    report.Layer("selection.greedy_ms", greedy_ms / double(n));
    report.Layer("solver.bnb_ms", bnb_ms / double(gap_samples));  // per solve
  }

  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%g", tail_p);
  report.Record("tail_percentile", buf);
  report.Record("ops_per_pass", std::to_string(n));
  report.Record("exact_checks_per_pass", std::to_string(exact_lat.size()));
  report.Record("updates_per_pass", std::to_string(update_lat.size()));
  report.Record("items", std::to_string(items));
  return report;
}

}  // namespace perfbench
