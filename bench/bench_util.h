#ifndef HYTAP_BENCH_BENCH_UTIL_H_
#define HYTAP_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <string>

#include "common/env.h"
#include "common/metrics.h"

namespace hytap::bench {

/// Wall-clock stopwatch for solver timing (real time, not simulated).
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

/// Dumps the process-wide metrics registry to METRICS_<bench_name>.json when
/// HYTAP_BENCH_METRICS is on (default off); a no-op otherwise. Every
/// bench main calls this last, so any benchmark run can emit an
/// observability snapshot alongside its BENCH_*.json result.
inline void MaybeWriteMetricsSnapshot(const char* bench_name) {
  if (!EnvBool("HYTAP_BENCH_METRICS", false)) return;
  const std::string path = std::string("METRICS_") + bench_name + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const std::string json = MetricsRegistry::Global().Snapshot().ToJson();
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("metrics snapshot written to %s\n", path.c_str());
}

}  // namespace hytap::bench

#endif  // HYTAP_BENCH_BENCH_UTIL_H_
