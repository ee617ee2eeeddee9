#include "tiering/fault_injector.h"

#include <algorithm>
#include <cstring>

#include "common/env.h"

namespace hytap {

bool FaultConfig::AnyFaults() const {
  return read_error_rate > 0.0 || page_failure_rate > 0.0 ||
         read_corruption_rate > 0.0 || write_corruption_rate > 0.0 ||
         latency_spike_rate > 0.0;
}

FaultConfig FaultConfig::FromEnv() {
  FaultConfig config;
  config.seed = EnvU64("HYTAP_FAULT_SEED", config.seed);
  auto rate = [](const char* name) {
    return std::clamp(EnvDouble(name, 0.0), 0.0, 1.0);
  };
  config.read_error_rate = rate("HYTAP_FAULT_READ_ERROR_RATE");
  config.write_corruption_rate = rate("HYTAP_FAULT_WRITE_CORRUPTION_RATE");
  return config;
}

FaultInjector::FaultInjector(FaultConfig config)
    : config_(config), rng_(config.seed) {}

FaultInjector::ReadFault FaultInjector::NextReadFault() {
  // One draw per attempt against stacked thresholds keeps the schedule a
  // pure function of (seed, attempt index).
  const double u = rng_.NextDouble();
  double threshold = config_.page_failure_rate;
  if (u < threshold) return ReadFault::kPageDead;
  threshold += config_.read_error_rate;
  if (u < threshold) return ReadFault::kTransientError;
  threshold += config_.read_corruption_rate;
  if (u < threshold) return ReadFault::kCorruptBits;
  threshold += config_.latency_spike_rate;
  if (u < threshold) return ReadFault::kLatencySpike;
  return ReadFault::kNone;
}

void FaultInjector::CorruptBits(uint8_t* data, size_t size) {
  const size_t flips = 1 + rng_.NextBounded(8);
  for (size_t f = 0; f < flips; ++f) {
    const size_t bit = rng_.NextBounded(size * 8);
    data[bit / 8] ^= uint8_t(1u << (bit % 8));
  }
}

bool FaultInjector::WritePage(const uint8_t* src, uint8_t* stored,
                              size_t size) {
  if (config_.write_corruption_rate <= 0.0 ||
      !rng_.NextBool(config_.write_corruption_rate)) {
    std::memcpy(stored, src, size);
    return false;
  }
  if (rng_.NextBool(0.5)) {
    // Torn write: only the first half of the new payload reaches the media.
    std::memcpy(stored, src, size / 2);
  } else {
    std::memcpy(stored, src, size);
    CorruptBits(stored, size);
  }
  while (std::memcmp(stored, src, size) == 0) {
    // The tear happened to be a no-op (old tail == new tail) or the flips
    // cancelled out; force a real corruption so every injected fault is
    // observable.
    CorruptBits(stored, size);
  }
  return true;
}

}  // namespace hytap
