#ifndef HYTAP_COMMON_METRICS_H_
#define HYTAP_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hytap {

/// Process-wide observability registry (DESIGN.md §11).
///
/// Counters, gauges, and fixed-bucket histograms with stable names,
/// registered once and updated lock-free from any thread. Metrics are pure
/// observers: they never feed back into execution, so query results,
/// IoStats, and fault schedules are bit-identical whether the switch is on
/// or off (`parallel_equivalence_test` asserts this).
///
/// The master switch (`SetMetricsEnabled`, default on) exists so the
/// overhead bench can time each layer against its off state. While disabled
/// every update is a no-op behind one relaxed atomic load — the registry
/// keeps its registrations but records nothing.

namespace metrics_internal {
/// Shards per counter. Updates from the PR 1 thread pool land on
/// (statistically) distinct cache lines instead of serializing on one.
inline constexpr size_t kCounterShards = 8;

extern std::atomic<bool> g_enabled;

/// Stable per-thread shard slot, assigned round-robin on first use.
size_t ShardSlot();

inline size_t ShardIndex() {
  thread_local const size_t slot = ShardSlot();
  return slot;
}
}  // namespace metrics_internal

/// Master switch (default on).
inline bool MetricsEnabled() {
  return metrics_internal::g_enabled.load(std::memory_order_relaxed);
}

/// Runtime override used by tests, benchmarks, and stats_cli.
void SetMetricsEnabled(bool enabled);

/// Monotonically increasing counter, sharded across cache lines.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    if (!MetricsEnabled()) return;
    shards_[metrics_internal::ShardIndex()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  Shard shards_[metrics_internal::kCounterShards];
};

/// Last-written signed value (e.g. resident pages, pool size).
class Gauge {
 public:
  void Set(int64_t value) {
    if (!MetricsEnabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram over uint64 samples. Bucket i counts samples
/// <= bounds[i] (first matching bucket); larger samples land in the
/// overflow bucket. Bounds are fixed at registration, so bucket assignment
/// is deterministic — the same sample sequence always yields the same
/// bucket counts, independent of thread interleaving.
class HistogramMetric {
 public:
  explicit HistogramMetric(std::vector<uint64_t> bounds);

  void Observe(uint64_t sample) {
    if (!MetricsEnabled()) return;
    buckets_[BucketOf(sample)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  const std::vector<uint64_t>& bounds() const { return bounds_; }
  /// Per-bucket counts (bounds().size() + 1 entries; last = overflow).
  std::vector<uint64_t> BucketCounts() const;
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  size_t BucketOf(uint64_t sample) const;

  std::vector<uint64_t> bounds_;  // ascending upper bounds
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> count_{0};
};

/// Point-in-time copy of every registered metric.
struct MetricsSnapshot {
  struct HistogramData {
    std::vector<uint64_t> bounds;
    std::vector<uint64_t> counts;  // bounds.size() + 1 (overflow last)
    uint64_t count = 0;
    uint64_t sum = 0;

    /// Deterministic interpolated quantile (`q` in [0, 1]) from the fixed
    /// buckets: linear interpolation inside the bucket holding the rank,
    /// integer math throughout. Overflow-bucket samples clamp to the last
    /// bound; an empty histogram reports 0.
    uint64_t Quantile(double q) const;
  };

  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  /// Prometheus text exposition format (counters/gauges/cumulative
  /// histogram buckets with `le` labels).
  std::string ToPrometheusText() const;
  /// Single JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {...}}.
  std::string ToJson() const;
};

/// Name -> metric registry. Registration takes a mutex once; the returned
/// pointers are stable for the process lifetime, so hot paths cache them in
/// function-local statics and update lock-free.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Returns the counter registered under `name`, creating it on first use.
  /// Names must match [a-zA-Z_:][a-zA-Z0-9_:]* (Prometheus-compatible).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` must be ascending; ignored (and asserted equal) if `name` is
  /// already registered.
  HistogramMetric* GetHistogram(const std::string& name,
                          std::vector<uint64_t> bounds);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (registrations survive). Benchmarks and
  /// stats_cli use this to scope a snapshot to one workload.
  void ResetAll();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

/// Decade buckets for simulated/wall durations in ns: 1us .. 100s.
std::vector<uint64_t> DurationNsBuckets();
/// Decade buckets for cardinalities: 1 .. 1e9 rows.
std::vector<uint64_t> RowCountBuckets();

}  // namespace hytap

#endif  // HYTAP_COMMON_METRICS_H_
