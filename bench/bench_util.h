#ifndef HYTAP_BENCH_BENCH_UTIL_H_
#define HYTAP_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>

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

}  // namespace hytap::bench

#endif  // HYTAP_BENCH_BENCH_UTIL_H_
