#include "common/phases.h"

#include <atomic>

#include "common/env.h"

namespace hytap {
namespace {

std::atomic<int> g_enabled{-1};  // -1 = unresolved, 0 = off, 1 = on

}  // namespace

const char* QueryPhaseName(QueryPhase phase) {
  switch (phase) {
    case QueryPhase::kScanProbe:
      return "scan_probe";
    case QueryPhase::kDelta:
      return "delta";
    case QueryPhase::kMaterialize:
      return "materialize";
    case QueryPhase::kStoreIo:
      return "store_io";
    case QueryPhase::kRetryBackoff:
      return "retry_backoff";
  }
  return "unknown";
}

bool PhaseAccountingEnabled() {
  int state = g_enabled.load(std::memory_order_relaxed);
  if (state < 0) {
    state = EnvBool("HYTAP_PHASE_ACCOUNTING", true) ? 1 : 0;
    g_enabled.store(state, std::memory_order_relaxed);
  }
  return state == 1;
}

void SetPhaseAccountingEnabled(bool enabled) {
  g_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

}  // namespace hytap
