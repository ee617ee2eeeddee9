#include "common/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "common/assert.h"

namespace hytap {

namespace metrics_internal {

std::atomic<bool> g_enabled{true};

size_t ShardSlot() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
}

}  // namespace metrics_internal

void SetMetricsEnabled(bool enabled) {
  metrics_internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

HistogramMetric::HistogramMetric(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    HYTAP_ASSERT(bounds_[i - 1] < bounds_[i],
                 "histogram bounds must be strictly ascending");
  }
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

size_t HistogramMetric::BucketOf(uint64_t sample) const {
  // Binary search over the fixed ascending bounds: first bound >= sample.
  size_t lo = 0, hi = bounds_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (sample <= bounds_[mid]) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;  // == bounds_.size() -> overflow bucket
}

std::vector<uint64_t> HistogramMetric::BucketCounts() const {
  std::vector<uint64_t> counts(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

void HistogramMetric::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace {

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

}  // namespace

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  HYTAP_ASSERT(ValidMetricName(name), "invalid metric name");
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  HYTAP_ASSERT(ValidMetricName(name), "invalid metric name");
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

HistogramMetric* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<uint64_t> bounds) {
  HYTAP_ASSERT(ValidMetricName(name), "invalid metric name");
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<HistogramMetric>(std::move(bounds));
  } else {
    HYTAP_ASSERT(slot->bounds() == bounds,
                 "histogram re-registered with different bounds");
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.bounds = histogram->bounds();
    data.counts = histogram->BucketCounts();
    data.count = histogram->Count();
    data.sum = histogram->Sum();
    snapshot.histograms[name] = std::move(data);
  }
  return snapshot;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  char buffer[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  if (n > 0) out->append(buffer, std::min<size_t>(size_t(n), sizeof(buffer)));
}

}  // namespace

uint64_t MetricsSnapshot::HistogramData::Quantile(double q) const {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0;
  if (q <= 0.0) q = 0.0;
  if (q >= 1.0) q = 1.0;
  // Rank of the sample the quantile lands on, 1-based. The double product is
  // evaluated from fixed literals on IEEE doubles, so it is deterministic.
  uint64_t target = static_cast<uint64_t>(q * double(total));
  if (double(target) < q * double(total)) ++target;  // ceil
  if (target < 1) target = 1;
  if (target > total) target = total;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (cumulative + counts[i] < target) {
      cumulative += counts[i];
      continue;
    }
    const uint64_t lo = i == 0 ? 0 : bounds[i - 1];
    // Overflow-bucket samples are only known to exceed the last bound;
    // clamp to it rather than inventing an upper edge.
    const uint64_t hi =
        i < bounds.size() ? bounds[i] : (bounds.empty() ? 0 : bounds.back());
    const uint64_t pos = target - cumulative;  // 1..counts[i]
    return lo + uint64_t((unsigned __int128)(hi - lo) * pos / counts[i]);
  }
  return bounds.empty() ? 0 : bounds.back();
}

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    AppendF(&out, "# TYPE %s counter\n", name.c_str());
    AppendF(&out, "%s %" PRIu64 "\n", name.c_str(), value);
  }
  for (const auto& [name, value] : gauges) {
    AppendF(&out, "# TYPE %s gauge\n", name.c_str());
    AppendF(&out, "%s %" PRId64 "\n", name.c_str(), value);
  }
  for (const auto& [name, h] : histograms) {
    AppendF(&out, "# TYPE %s histogram\n", name.c_str());
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.counts[i];
      AppendF(&out, "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n",
              name.c_str(), h.bounds[i], cumulative);
    }
    cumulative += h.counts.empty() ? 0 : h.counts.back();
    AppendF(&out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", name.c_str(),
            cumulative);
    AppendF(&out, "%s_sum %" PRIu64 "\n", name.c_str(), h.sum);
    AppendF(&out, "%s_count %" PRIu64 "\n", name.c_str(), h.count);
    // Interpolated quantile gauges derived from the fixed buckets. Each one
    // is its own single-sample family, hence its own TYPE declaration.
    static const struct {
      const char* suffix;
      double q;
    } kQuantiles[] = {{"_p50", 0.50}, {"_p99", 0.99}, {"_p999", 0.999}};
    for (const auto& quantile : kQuantiles) {
      AppendF(&out, "# TYPE %s%s gauge\n", name.c_str(), quantile.suffix);
      AppendF(&out, "%s%s %" PRIu64 "\n", name.c_str(), quantile.suffix,
              h.Quantile(quantile.q));
    }
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    AppendF(&out, "%s\n    \"%s\": %" PRIu64, first ? "" : ",", name.c_str(),
            value);
    first = false;
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    AppendF(&out, "%s\n    \"%s\": %" PRId64, first ? "" : ",", name.c_str(),
            value);
    first = false;
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    AppendF(&out, "%s\n    \"%s\": {\"bounds\": [", first ? "" : ",",
            name.c_str());
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      AppendF(&out, "%s%" PRIu64, i == 0 ? "" : ", ", h.bounds[i]);
    }
    out += "], \"counts\": [";
    for (size_t i = 0; i < h.counts.size(); ++i) {
      AppendF(&out, "%s%" PRIu64, i == 0 ? "" : ", ", h.counts[i]);
    }
    AppendF(&out,
            "], \"count\": %" PRIu64 ", \"sum\": %" PRIu64 ", \"p50\": %" PRIu64
            ", \"p99\": %" PRIu64 ", \"p999\": %" PRIu64 "}",
            h.count, h.sum, h.Quantile(0.50), h.Quantile(0.99),
            h.Quantile(0.999));
    first = false;
  }
  out += "\n  }\n}\n";
  return out;
}

std::vector<uint64_t> DurationNsBuckets() {
  // Decades from 1 us to 100 s (simulated or wall ns).
  return {1000ull,       10000ull,       100000ull,      1000000ull,
          10000000ull,   100000000ull,   1000000000ull,  10000000000ull,
          100000000000ull};
}

std::vector<uint64_t> RowCountBuckets() {
  return {1ull,      10ull,      100ull,      1000ull,      10000ull,
          100000ull, 1000000ull, 10000000ull, 100000000ull, 1000000000ull};
}

}  // namespace hytap
