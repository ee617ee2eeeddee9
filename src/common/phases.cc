#include "common/phases.h"

namespace hytap {

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

}  // namespace hytap
