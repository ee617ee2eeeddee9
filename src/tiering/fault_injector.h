#ifndef HYTAP_TIERING_FAULT_INJECTOR_H_
#define HYTAP_TIERING_FAULT_INJECTOR_H_

#include <cstddef>
#include <cstdint>

#include "common/random.h"

namespace hytap {

/// Fault-injection rates for a SecondaryStore (all probabilities per
/// read attempt / per page write). All zero by default: the store behaves
/// exactly like the fault-free seed engine.
///
/// The taxonomy mirrors how the paper's secondary devices (SSD/HDD/3D
/// XPoint volumes, §II-C) actually fail in production:
///  - transient read errors (bus resets, command timeouts) — retryable;
///  - persistent page failures (grown bad blocks) — permanent, the page is
///    quarantined;
///  - in-transit corruption (bit flips between media and host) — caught by
///    the page checksum, cleared by a re-read;
///  - write corruption (torn half-page writes on power loss, firmware bit
///    flips) — *silent* at write time, detected by verify-on-read /
///    read-back checksums;
///  - latency spikes (NAND garbage-collection pauses).
struct FaultConfig {
  uint64_t seed = 0;
  /// Probability that a read attempt fails transiently (retry succeeds).
  double read_error_rate = 0.0;
  /// Probability that a read attempt discovers the page permanently dead.
  double page_failure_rate = 0.0;
  /// Probability that a read attempt delivers bit-flipped bytes (the
  /// stored page stays intact; a retry re-reads clean data).
  double read_corruption_rate = 0.0;
  /// Probability that a page write is silently corrupted on the media
  /// (torn half-page or bit flips). Detected only by checksum on read-back.
  double write_corruption_rate = 0.0;
  /// Probability that a read attempt hits a latency spike.
  double latency_spike_rate = 0.0;
  /// Latency multiplier applied to spiked reads.
  double latency_spike_multiplier = 20.0;

  /// True if any injection rate is non-zero.
  bool AnyFaults() const;

  /// Reads HYTAP_FAULT_SEED, HYTAP_FAULT_READ_ERROR_RATE and
  /// HYTAP_FAULT_WRITE_CORRUPTION_RATE from the environment (unset = 0,
  /// i.e. disabled); the other rates stay 0.
  static FaultConfig FromEnv();
};

/// Counts of injected faults and of the recovery work they caused.
struct FaultStats {
  uint64_t transient_errors = 0;   // injected transient read failures
  uint64_t corrupted_reads = 0;    // injected in-transit corruptions
  uint64_t corrupted_writes = 0;   // injected silent write corruptions
  uint64_t dead_pages = 0;         // pages declared permanently failed
  uint64_t latency_spikes = 0;     // injected latency spikes
  uint64_t checksum_failures = 0;  // corruptions *detected* by checksum
  uint64_t verify_failures = 0;    // VerifyPage checksum mismatches
                                   // (migration read-back + bulk verify)
  uint64_t retries = 0;            // read attempts beyond the first
  uint64_t failed_reads = 0;       // ReadPage calls that returned non-OK
  uint64_t fast_fail_reads = 0;    // reads rejected on a quarantined page
  uint64_t quarantined_pages = 0;  // pages currently quarantined
};

/// Deterministic, seeded fault source for one SecondaryStore.
///
/// The injector draws exactly one uniform variate per read attempt (plus
/// extra draws only when a corruption fires), so for a fixed seed the fault
/// schedule depends only on the *sequence* of page accesses — which the
/// engine keeps serialized in its deterministic accounting passes. The same
/// workload therefore sees the same faults at every worker count.
class FaultInjector {
 public:
  enum class ReadFault {
    kNone,
    kTransientError,  // attempt fails, dest untouched; retryable
    kPageDead,        // page permanently unreadable
    kCorruptBits,     // attempt delivers flipped bits; retryable
    kLatencySpike,    // attempt succeeds but is slow
  };

  explicit FaultInjector(FaultConfig config);

  const FaultConfig& config() const { return config_; }

  /// Draws the fault (if any) for one read attempt.
  ReadFault NextReadFault();

  /// Flips 1-8 random bits in the `size`-byte buffer (in-transit damage).
  void CorruptBits(uint8_t* data, size_t size);

  /// Decides whether this page write is silently corrupted; if so, applies
  /// either a torn half-page write (first half of `src` lands, the rest of
  /// `stored` keeps its previous contents) or random bit flips to `stored`
  /// and returns true. Otherwise copies `src` to `stored` verbatim and
  /// returns false. Guarantees a corrupted result actually differs from
  /// `src`, so every injected write corruption is checksum-detectable.
  bool WritePage(const uint8_t* src, uint8_t* stored, size_t size);

 private:
  FaultConfig config_;
  Rng rng_;
};

}  // namespace hytap

#endif  // HYTAP_TIERING_FAULT_INJECTOR_H_
