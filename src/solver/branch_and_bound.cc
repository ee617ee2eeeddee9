#include "solver/branch_and_bound.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <numeric>

#include "common/assert.h"
#include "common/thread_pool.h"

namespace hytap {

namespace {

/// The first kSplitDepth density-sorted items span a static grid of
/// 2^kSplitDepth subproblems that workers claim from the shared pool.
/// Independent of the worker count so the search tree decomposition — and
/// with it the final answer — never depends on parallelism.
constexpr size_t kSplitDepth = 11;

/// Nodes between flushes of the local node counter into the shared budget /
/// deadline check. Bounds stop latency without hot-loop atomics.
constexpr uint64_t kNodeBatch = 256;

/// Determinism (DESIGN.md §13). The search runs in two phases:
///
///  1. A racing phase computes the optimal *profit* P. Workers prune with
///     the shared incumbent, but only behind a safety margin that dominates
///     the floating-point noise of the prefix-sum bound: a subtree is cut
///     only when bound <= incumbent - margin, which proves its true maximum
///     is strictly below the incumbent. Subtrees containing an optimum are
///     therefore never cut, so the final incumbent profit is exactly P on
///     every schedule. (Which *vector* holds the incumbent is still
///     schedule-dependent among profit ties.)
///  2. A deterministic reconstruction pass re-walks the tree in serial DFS
///     order, pruning with the now-known P, and returns the first node
///     whose profit equals P bit-for-bit. Profit accumulation is canonical
///     (ascending density order along the path), so the phase-1 profit is
///     reproducible exactly and the returned take-vector is identical for
///     every worker count.
struct SearchContext {
  const std::vector<KnapsackItem>* items = nullptr;  // density-sorted
  std::vector<double> prefix_weight;  // size n + 1
  std::vector<double> prefix_profit;  // size n + 1
  double capacity = 0.0;
  double weight_tol = 0.0;
  double prune_margin = 0.0;
  uint64_t max_nodes = 0;
  std::chrono::steady_clock::time_point deadline;

  std::atomic<uint64_t> nodes{0};
  std::atomic<uint64_t> pruned{0};
  std::atomic<bool> exhausted{false};
  std::atomic<bool> deadline_hit{false};

  /// Shared incumbent: the profit is read lock-free by the pruning hot
  /// path; the vector (and the improvement callback) update under a mutex.
  std::atomic<double> best_profit{0.0};
  std::mutex incumbent_mutex;
  std::vector<uint8_t> best_take;  // density order
  double best_weight = 0.0;
  bool has_incumbent = false;
  const std::vector<size_t>* order = nullptr;  // sorted index -> input index
  std::vector<uint8_t> input_take_scratch;
  const KnapsackOptions* options = nullptr;

  size_t item_count() const { return items->size(); }

  bool ShouldStop() const {
    return exhausted.load(std::memory_order_relaxed) ||
           deadline_hit.load(std::memory_order_relaxed);
  }

  /// Dantzig bound from `level` in O(log N): greedy whole-item fill via the
  /// prefix sums, plus the fractional head of the first item that no longer
  /// fits.
  double Bound(size_t level, double weight, double profit) const {
    const double remaining = capacity - weight;
    if (remaining <= 0.0) return profit;
    const size_t n = item_count();
    const double target = prefix_weight[level] + remaining;
    const size_t k =
        size_t(std::upper_bound(prefix_weight.begin() + level,
                                prefix_weight.end(), target) -
               prefix_weight.begin()) -
        1;
    double bound = profit + (prefix_profit[k] - prefix_profit[level]);
    if (k < n) {
      const double slack = remaining - (prefix_weight[k] - prefix_weight[level]);
      if (slack > 0.0) {
        bound += (*items)[k].profit * (slack / (*items)[k].weight);
      }
    }
    return bound;
  }

  /// Installs `current` as the incumbent if it strictly improves. `current`
  /// holds the take-bits of every decided level; undecided levels are 0.
  void MaybePublish(const std::vector<uint8_t>& current, double weight,
                    double profit) {
    if (profit <= best_profit.load(std::memory_order_relaxed)) return;
    std::lock_guard<std::mutex> lock(incumbent_mutex);
    if (profit <= best_profit.load(std::memory_order_relaxed)) return;
    best_take = current;
    best_weight = weight;
    has_incumbent = true;
    best_profit.store(profit, std::memory_order_release);
    if (options->on_improve) {
      input_take_scratch.assign(item_count(), 0);
      for (size_t i = 0; i < item_count(); ++i) {
        input_take_scratch[(*order)[i]] = best_take[i];
      }
      options->on_improve(profit, weight, input_take_scratch);
    }
  }

  /// Flushes a local node batch into the shared counter and re-checks the
  /// node budget and the deadline. Returns true when the search must stop.
  bool Tick(uint64_t* unflushed) {
    if (++*unflushed >= kNodeBatch) {
      nodes.fetch_add(*unflushed, std::memory_order_relaxed);
      *unflushed = 0;
      if (deadline != std::chrono::steady_clock::time_point::max() &&
          std::chrono::steady_clock::now() >= deadline) {
        deadline_hit.store(true, std::memory_order_relaxed);
      }
      if (nodes.load(std::memory_order_relaxed) > max_nodes) {
        exhausted.store(true, std::memory_order_relaxed);
      }
      return ShouldStop();
    }
    return false;
  }
};

/// One DFS node: the level it decides, the weight/profit *before* that
/// decision, and how far its expansion has advanced (0 = first visit,
/// 1 = take-branch done, 2 = skip-branch done).
struct Frame {
  uint32_t level;
  uint8_t stage;
  double weight;
  double profit;
};

/// Decodes subproblem `sub` (the fixed take/skip pattern of the first
/// `depth` levels; bit 0 of the pattern = take, and subproblem order mirrors
/// take-first DFS order). Returns false when the prefix is infeasible.
bool DecodePrefix(const SearchContext& ctx, uint64_t sub, size_t depth,
                  std::vector<uint8_t>* current, double* weight,
                  double* profit) {
  *weight = 0.0;
  *profit = 0.0;
  for (size_t level = 0; level < depth; ++level) {
    const bool take = ((sub >> (depth - 1 - level)) & 1) == 0;
    (*current)[level] = take ? 1 : 0;
    if (!take) continue;
    const KnapsackItem& item = (*ctx.items)[level];
    if (*weight + item.weight > ctx.capacity + ctx.weight_tol) return false;
    *weight += item.weight;
    *profit += item.profit;
  }
  return true;
}

/// Phase-1 DFS below one subproblem prefix. `current` carries the decided
/// take-bits, `stack`/`current` are caller-owned scratch reused across the
/// subproblems of one morsel.
void SearchSubproblem(SearchContext& ctx, uint64_t sub, size_t depth,
                      std::vector<uint8_t>* current,
                      std::vector<Frame>* stack) {
  const size_t n = ctx.item_count();
  uint64_t unflushed = 0;
  uint64_t local_pruned = 0;
  double weight = 0.0;
  double profit = 0.0;
  if (!DecodePrefix(ctx, sub, depth, current, &weight, &profit)) {
    ctx.pruned.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  stack->clear();
  stack->push_back(Frame{uint32_t(depth), 0, weight, profit});
  while (!stack->empty()) {
    Frame& f = stack->back();
    if (f.stage == 0) {
      if (ctx.Tick(&unflushed)) break;
      if (f.profit > ctx.best_profit.load(std::memory_order_relaxed)) {
        ctx.MaybePublish(*current, f.weight, f.profit);
      }
      if (f.level == n) {
        stack->pop_back();
        continue;
      }
      const double bound = ctx.Bound(f.level, f.weight, f.profit);
      if (bound <= ctx.best_profit.load(std::memory_order_relaxed) -
                       ctx.prune_margin) {
        ++local_pruned;
        stack->pop_back();
        continue;
      }
      const KnapsackItem& item = (*ctx.items)[f.level];
      if (f.weight + item.weight <= ctx.capacity + ctx.weight_tol) {
        f.stage = 1;
        (*current)[f.level] = 1;
        const Frame child{f.level + 1, 0, f.weight + item.weight,
                          f.profit + item.profit};
        stack->push_back(child);  // may invalidate f
      } else {
        f.stage = 2;
        const Frame child{f.level + 1, 0, f.weight, f.profit};
        stack->push_back(child);
      }
      continue;
    }
    if (f.stage == 1) {
      (*current)[f.level] = 0;
      f.stage = 2;
      const Frame child{f.level + 1, 0, f.weight, f.profit};
      stack->push_back(child);
      continue;
    }
    stack->pop_back();
  }
  if (unflushed > 0) ctx.nodes.fetch_add(unflushed, std::memory_order_relaxed);
  if (local_pruned > 0) {
    ctx.pruned.fetch_add(local_pruned, std::memory_order_relaxed);
  }
}

/// Phase-2 deterministic reconstruction: serial take-first DFS over the
/// subproblems in order, pruning against the known optimal profit, stopping
/// at the first node whose profit equals it exactly. Returns false if the
/// node cap was exhausted first (the caller then keeps the phase-1
/// incumbent; correctness is unaffected, only tie determinism).
bool ReconstructOptimal(SearchContext& ctx, size_t depth, double target,
                        uint64_t node_cap, std::vector<uint8_t>* take_out,
                        double* weight_out, uint64_t* nodes_out) {
  const size_t n = ctx.item_count();
  const uint64_t subproblems = uint64_t{1} << depth;
  std::vector<uint8_t> current(n, 0);
  std::vector<Frame> stack;
  uint64_t nodes = 0;
  const double threshold = target - ctx.prune_margin;
  for (uint64_t sub = 0; sub < subproblems; ++sub) {
    double weight = 0.0;
    double profit = 0.0;
    if (!DecodePrefix(ctx, sub, depth, &current, &weight, &profit)) continue;
    if (ctx.Bound(depth, weight, profit) < threshold) continue;
    stack.clear();
    stack.push_back(Frame{uint32_t(depth), 0, weight, profit});
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.stage == 0) {
        if (++nodes > node_cap) {
          *nodes_out = nodes;
          return false;
        }
        if (f.profit == target) {
          *take_out = current;
          *weight_out = f.weight;
          *nodes_out = nodes;
          return true;
        }
        if (f.level == n ||
            ctx.Bound(f.level, f.weight, f.profit) < threshold) {
          stack.pop_back();
          continue;
        }
        const KnapsackItem& item = (*ctx.items)[f.level];
        if (f.weight + item.weight <= ctx.capacity + ctx.weight_tol) {
          f.stage = 1;
          current[f.level] = 1;
          const Frame child{f.level + 1, 0, f.weight + item.weight,
                            f.profit + item.profit};
          stack.push_back(child);
        } else {
          f.stage = 2;
          const Frame child{f.level + 1, 0, f.weight, f.profit};
          stack.push_back(child);
        }
        continue;
      }
      if (f.stage == 1) {
        current[f.level] = 0;
        f.stage = 2;
        const Frame child{f.level + 1, 0, f.weight, f.profit};
        stack.push_back(child);
        continue;
      }
      stack.pop_back();
    }
    // Clear the prefix bits before the next subproblem decode overwrites
    // them (DecodePrefix writes every prefix level, so this is redundant
    // but keeps `current` all-zero on exit).
  }
  *nodes_out = nodes;
  return false;
}

}  // namespace

KnapsackSolution SolveKnapsack(const std::vector<KnapsackItem>& items,
                               double capacity,
                               const KnapsackOptions& options) {
  KnapsackSolution solution;
  solution.take.assign(items.size(), 0);
  if (items.empty() || capacity <= 0.0) return solution;
  for (const KnapsackItem& item : items) {
    HYTAP_ASSERT(item.profit > 0.0 && item.weight > 0.0,
                 "knapsack items need positive profit and weight");
  }

  // Sort by profit density, descending (ties by input index for a stable,
  // input-independent order).
  const size_t n = items.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const double da = items[a].profit * items[b].weight;
    const double db = items[b].profit * items[a].weight;
    if (da != db) return da > db;
    return a < b;
  });
  std::vector<KnapsackItem> sorted;
  sorted.reserve(n);
  for (size_t i : order) sorted.push_back(items[i]);

  SearchContext ctx;
  ctx.items = &sorted;
  ctx.prefix_weight.resize(n + 1);
  ctx.prefix_profit.resize(n + 1);
  ctx.prefix_weight[0] = 0.0;
  ctx.prefix_profit[0] = 0.0;
  double total_profit = 0.0;
  for (size_t i = 0; i < n; ++i) {
    ctx.prefix_weight[i + 1] = ctx.prefix_weight[i] + sorted[i].weight;
    ctx.prefix_profit[i + 1] = ctx.prefix_profit[i] + sorted[i].profit;
    total_profit += sorted[i].profit;
  }
  ctx.capacity = capacity;
  ctx.weight_tol = 1e-9 * std::max(1.0, capacity);
  // Safety margin over the floating-point noise of prefix-sum bounds; see
  // the determinism note above. Scales with the total profit mass because
  // that is what the prefix-sum cancellation error scales with.
  ctx.prune_margin = 1e-9 * std::max(1.0, total_profit);
  ctx.max_nodes = options.max_nodes;
  ctx.deadline = options.deadline;
  ctx.order = &order;
  ctx.options = &options;

  solution.lp_bound = ctx.Bound(0, 0.0, 0.0);

  const size_t depth = std::min(n, kSplitDepth);
  const uint64_t subproblems = uint64_t{1} << depth;
  const uint32_t workers = options.workers == 0 ? 1 : options.workers;
  // Chunked morsels so each worker reuses one scratch allocation across a
  // run of subproblems; ~8 chunks per worker keeps stealing balanced.
  const size_t grain = std::max<size_t>(
      1, size_t(subproblems) / std::max<size_t>(1, size_t(workers) * 8));
  ThreadPool::Global().ParallelFor(
      0, size_t(subproblems), grain, workers,
      [&ctx, depth](size_t, size_t chunk_begin, size_t chunk_end) {
        std::vector<uint8_t> current(ctx.item_count(), 0);
        std::vector<Frame> stack;
        for (size_t sub = chunk_begin; sub < chunk_end; ++sub) {
          if (ctx.ShouldStop()) return;
          SearchSubproblem(ctx, sub, depth, &current, &stack);
        }
      });

  solution.nodes = ctx.nodes.load(std::memory_order_relaxed);
  solution.pruned = ctx.pruned.load(std::memory_order_relaxed);
  solution.deadline_hit = ctx.deadline_hit.load(std::memory_order_relaxed);
  solution.optimal = !ctx.exhausted.load(std::memory_order_relaxed) &&
                     !solution.deadline_hit;

  std::vector<uint8_t> best_take;
  double best_weight = 0.0;
  double best_profit = 0.0;
  {
    std::lock_guard<std::mutex> lock(ctx.incumbent_mutex);
    best_take = ctx.best_take;
    best_weight = ctx.best_weight;
    best_profit = ctx.best_profit.load(std::memory_order_relaxed);
    if (!ctx.has_incumbent) best_take.assign(n, 0);
  }

  if (solution.optimal && best_profit > 0.0) {
    // Deterministic tie resolution: replace the schedule-dependent incumbent
    // vector with the first optimal solution in serial DFS order.
    std::vector<uint8_t> canonical;
    double canonical_weight = 0.0;
    uint64_t phase2_nodes = 0;
    const uint64_t node_cap =
        std::max<uint64_t>(10'000'000, 4 * solution.nodes);
    if (ReconstructOptimal(ctx, depth, best_profit, node_cap, &canonical,
                           &canonical_weight, &phase2_nodes)) {
      best_take = std::move(canonical);
      best_weight = canonical_weight;
    }
    solution.nodes += phase2_nodes;
  }

  solution.profit = best_profit;
  solution.weight = best_weight;
  for (size_t i = 0; i < n; ++i) solution.take[order[i]] = best_take[i];
  if (solution.lp_bound > 0.0) {
    solution.gap =
        std::max(0.0, (solution.lp_bound - solution.profit) / solution.lp_bound);
  }
  return solution;
}

KnapsackSolution SolveKnapsack(const std::vector<KnapsackItem>& items,
                               double capacity, uint64_t max_nodes) {
  KnapsackOptions options;
  options.max_nodes = max_nodes;
  return SolveKnapsack(items, capacity, options);
}

}  // namespace hytap
