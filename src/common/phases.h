#ifndef HYTAP_COMMON_PHASES_H_
#define HYTAP_COMMON_PHASES_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace hytap {

/// Lifecycle phases of a served query on the *simulated* clock.
///
/// The serving pipeline is admit -> queue-wait -> dispatch -> execute ->
/// flush, but admission, queueing, dispatch, and the reorder-buffer flush
/// are instantaneous in the simulated-time domain: the monitor clock only
/// advances when a ticket's execution cost is folded in at flush (see
/// DESIGN.md §17). Those phases are therefore identically zero on the
/// simulated clock and are tracked separately as wall-clock histograms
/// (`hytap_session_*_queue_wait_ns`). What remains — and what this enum
/// partitions — is the execute phase, split by where the simulated
/// nanoseconds were charged.
enum class QueryPhase : uint8_t {
  /// Main-partition work: index lookup, MRC/SSCG scan and probe, rescans —
  /// every DRAM-side nanosecond accrued while executing the main partition.
  kScanProbe = 0,
  /// Delta-partition scan/probe DRAM charge.
  kDelta = 1,
  /// Row materialization and aggregate evaluation DRAM charge.
  kMaterialize = 2,
  /// Secondary-store device time for productive page reads (device_ns minus
  /// the retry/backoff waste below).
  kStoreIo = 3,
  /// Retry waste on the secondary store: exponential backoff charges plus
  /// the device latency of failed attempts that had to be retried.
  kRetryBackoff = 4,
};

inline constexpr size_t kQueryPhaseCount = 5;

/// Stable lower_snake_case name used in metrics, reports, and decode output.
const char* QueryPhaseName(QueryPhase phase);

/// Per-ticket phase decomposition in simulated nanoseconds. The invariant
/// the whole attribution layer rests on: Sum() equals the ticket's
/// end-to-end simulated latency (`IoStats::TotalNs()` of its execution)
/// exactly — including partially accrued cancelled/faulted executions —
/// and is zero for tickets that were shed or cancelled while queued.
struct PhaseVector {
  std::array<uint64_t, kQueryPhaseCount> ns{};

  uint64_t& operator[](QueryPhase phase) {
    return ns[static_cast<size_t>(phase)];
  }
  uint64_t operator[](QueryPhase phase) const {
    return ns[static_cast<size_t>(phase)];
  }

  uint64_t Sum() const {
    uint64_t total = 0;
    for (uint64_t v : ns) total += v;
    return total;
  }

  /// Phase with the largest charge; ties break toward the lower enum value
  /// so the answer is deterministic.
  QueryPhase Dominant() const {
    size_t best = 0;
    for (size_t i = 1; i < kQueryPhaseCount; ++i) {
      if (ns[i] > ns[best]) best = i;
    }
    return static_cast<QueryPhase>(best);
  }

  bool operator==(const PhaseVector& other) const { return ns == other.ns; }
  bool operator!=(const PhaseVector& other) const { return ns != other.ns; }
};

}  // namespace hytap

#endif  // HYTAP_COMMON_PHASES_H_
