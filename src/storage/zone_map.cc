#include "storage/zone_map.h"

#include <atomic>

#include "common/env.h"

namespace hytap {

namespace {

std::atomic<bool>& Flag() {
  static std::atomic<bool> enabled{EnvBool("HYTAP_ZONE_MAPS", true)};
  return enabled;
}

}  // namespace

bool ZoneMapsEnabled() { return Flag().load(std::memory_order_relaxed); }

void SetZoneMapsEnabled(bool enabled) {
  Flag().store(enabled, std::memory_order_relaxed);
}

}  // namespace hytap
