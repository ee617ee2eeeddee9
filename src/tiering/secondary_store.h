#ifndef HYTAP_TIERING_SECONDARY_STORE_H_
#define HYTAP_TIERING_SECONDARY_STORE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "tiering/device_model.h"
#include "tiering/fault_injector.h"

namespace hytap {

/// Access pattern hint for device timing.
enum class AccessPattern { kSequential, kRandom };

/// Simulated backoff charged before the first retry of a failed page read;
/// doubles per subsequent retry (exponential backoff). Calibrated to a few
/// device service times so retried reads stay visible in latency tails
/// without dominating them.
inline constexpr uint64_t kRetryBackoffBaseNs = 100000;  // 100 us

/// A paged secondary-storage volume backed by memory with device-model
/// timing. Stands in for the paper's SSD/HDD/3D XPoint volumes: page
/// contents are real (reads return the stored bytes); only the timing is
/// simulated (see DeviceModel).
///
/// Reliability model: every page carries a CRC32C checksum computed on
/// WritePage and verified on ReadPage — lazily (once per write, on the
/// first read-back) while the volume is fault-free, since the memory-backed
/// media cannot change between writes, and on every read while a
/// FaultInjector is armed (in-transit corruption). The optional seeded
/// injector makes the volume fail like real hardware (transient read
/// errors, grown bad blocks, in-transit and written-out corruption, latency
/// spikes).
/// ReadPage retries transient failures with exponential backoff charged to
/// the simulated latency; pages that fail permanently or hold corrupt bytes
/// are quarantined and fail fast on later reads.
class SecondaryStore {
 public:
  using Page = std::array<uint8_t, kPageSize>;

  /// Outcome of a successful page read.
  struct ReadOutcome {
    /// Simulated latency (device time + retry backoff) for one requester
    /// among `queue_depth` concurrent ones.
    uint64_t latency_ns = 0;
    /// Read attempts beyond the first.
    uint32_t retries = 0;
    /// The retry-waste slice of latency_ns: backoff charges plus the device
    /// latency of failed attempts. latency_ns - retry_ns is the final
    /// successful attempt's productive device time.
    uint64_t retry_ns = 0;
  };

  /// Fault activity of one ReadPage call, reported on success *and* failure
  /// paths so a caller (the buffer manager) can attribute per-fetch deltas
  /// without racing on the store-wide FaultStats under concurrent sessions.
  struct ReadFaultReport {
    uint32_t checksum_failures = 0;
    uint32_t retries = 0;
    /// The stored bytes failed verification on every retry (kDataLoss) —
    /// the buffered-path counterpart of a VerifyPage read-back failure.
    uint32_t verify_failures = 0;
    /// This read quarantined its page (newly dead / persistently corrupt).
    bool quarantined = false;
  };

  /// Session-private nondeterminism streams. A serving session draws its
  /// timing jitter and fault schedule from its own Rng pair, seeded from the
  /// store's seeds and the session's ticket — so each query's draws are a
  /// pure function of (store state, query, ticket) and bit-identical whether
  /// sessions run concurrently or serially replayed in ticket order. Streamed
  /// reads also skip the quarantine fast-fail consult (cross-query coupling
  /// through quarantine arrival order would break that purity); quarantine
  /// *insertion* still happens, keeping the page fenced for synchronous
  /// callers.
  class ReadStream {
   public:
    ReadStream(uint64_t timing_seed, const FaultConfig& faults);

   private:
    friend class SecondaryStore;
    Rng timing_rng_;
    std::unique_ptr<FaultInjector> injector_;  // null = fault-free
    /// Flight-event identity: the owning session's ticket and a per-stream
    /// event sequence. Both are pure functions of the ticket, so fault
    /// events recorded from concurrent sessions stay dump-deterministic.
    uint64_t ticket_ = 0;
    uint32_t event_seq_ = 0;
  };

  /// Derives the draw streams for session ticket `ticket`.
  ReadStream MakeStream(uint64_t ticket) const;

  /// Fault injection defaults to FaultConfig::FromEnv() (all disabled when
  /// its knobs are unset), so production builds pay only the checksum.
  explicit SecondaryStore(DeviceKind device, uint64_t timing_seed = 42,
                          FaultConfig fault_config = FaultConfig::FromEnv());

  SecondaryStore(const SecondaryStore&) = delete;
  SecondaryStore& operator=(const SecondaryStore&) = delete;

  /// Allocates a zeroed page; returns its id.
  PageId AllocatePage();

  /// Frees the payload of page `id` (a replaced SSCG's pages). Ids are never
  /// reused, so page ids stay a pure function of the allocation sequence;
  /// any later access to a released page is an invariant violation.
  void ReleasePage(PageId id);

  /// Writes a full page and records its checksum. The write may be silently
  /// corrupted by the fault injector (torn half-page / bit flips) — that is
  /// the point: corruption is only *detected* by ReadPage / VerifyPage.
  /// Timing is accounted separately via DeviceModel::SequentialWriteNs
  /// during migration.
  void WritePage(PageId id, const Page& data);

  /// Reads a page into `dest` with bounded retry + exponential backoff.
  /// Returns the simulated latency/retry outcome, or:
  ///  - kUnavailable: the page is permanently dead or transient errors
  ///    persisted through every retry (the page is quarantined);
  ///  - kDataLoss: the stored bytes fail their checksum on every retry
  ///    (silent corruption detected; the page is quarantined).
  /// On any error `dest` holds no valid data and no state other than the
  /// quarantine set and stats is modified.
  /// `stream` (optional) supplies session-private timing/fault draws — see
  /// ReadStream. `report` (optional) receives this call's fault activity on
  /// both the success and failure path.
  StatusOr<ReadOutcome> ReadPage(PageId id, Page* dest, AccessPattern pattern,
                                 uint32_t queue_depth = 1,
                                 ReadStream* stream = nullptr,
                                 ReadFaultReport* report = nullptr);

  /// Recomputes the stored page's checksum (timing-free, no fault
  /// injection). Used by migration verify-after-write and bulk verification;
  /// returns kDataLoss on mismatch. Every failure counts into
  /// FaultStats::verify_failures / hytap_store_verify_failures_total and
  /// records a kStoreVerifyFail flight event.
  Status VerifyPage(PageId id) const;

  /// Stamps subsequent non-streamed flight events (faults, quarantines,
  /// verify failures on the serial migration/accounting paths) with a
  /// monitor window index and simulated time, so they sort into the dump
  /// timeline at the point of the operation that caused them. Streamed
  /// (session) events ignore the stamp — they are identified by
  /// (ticket, stream sequence) instead.
  void SetFlightStamp(uint64_t window, uint64_t sim_ns);

  /// Direct (timing-free) access for verification and migration and for the
  /// parallel data passes, which only touch pages a serial accounting pass
  /// already fetched and checksum-verified through ReadPage.
  const Page& RawPage(PageId id) const;

  /// Replaces the fault injector (e.g. to start injecting after a clean
  /// load phase) and clears the quarantine set and fault stats.
  void ConfigureFaults(FaultConfig config);

  /// Maximum read retries after a failed attempt (default 4).
  void set_max_read_retries(uint32_t retries) { max_read_retries_ = retries; }
  uint32_t max_read_retries() const { return max_read_retries_; }

  /// Page ids allocated so far (released ones included).
  size_t page_count() const { return pages_.size(); }
  /// Pages currently holding a payload (allocated minus released).
  size_t resident_page_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pages_.size() - released_pages_;
  }
  uint64_t total_read_ns() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_read_ns_;
  }
  uint64_t reads() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return reads_;
  }
  const DeviceModel& device() const { return device_; }
  /// Aggregate fault statistics. Returned by reference for cheap field
  /// access; callers must be quiesced (no in-flight session reads) — tests
  /// and benches read it after Drain()/Await.
  const FaultStats& fault_stats() const { return fault_stats_; }
  bool IsQuarantined(PageId id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return quarantine_.find(id) != quarantine_.end();
  }

  void ResetStats();

 private:
  DeviceModel device_;
  uint64_t timing_seed_;
  FaultConfig fault_config_;
  Rng timing_rng_;
  std::unique_ptr<FaultInjector> injector_;  // null = fault-free
  std::vector<std::unique_ptr<Page>> pages_;  // null = released
  size_t released_pages_ = 0;
  std::vector<uint32_t> checksums_;
  /// Media verified since its last write (fault-free reads skip the CRC).
  std::vector<bool> verified_;
  /// Pages that failed permanently, with the status code to fail fast with
  /// (kUnavailable or kDataLoss).
  std::unordered_map<PageId, StatusCode> quarantine_;
  uint32_t max_read_retries_ = 4;
  uint64_t total_read_ns_ = 0;
  uint64_t reads_ = 0;
  /// Mutable: VerifyPage is logically const (it changes no page state) but
  /// accounts its failures.
  mutable FaultStats fault_stats_;
  /// Flight-event sequence for non-streamed events and the stamps applied
  /// to them (see SetFlightStamp). All guarded by mutex_.
  mutable uint32_t flight_seq_ = 0;
  uint64_t flight_window_ = 0;
  uint64_t flight_sim_ns_ = 0;
  /// Serializes ReadPage/WritePage and stats against concurrent sessions.
  /// RawPage stays lock-free: pages are stable unique_ptrs and the serving
  /// layer excludes allocation/migration while queries are in flight.
  mutable std::mutex mutex_;
};

}  // namespace hytap

#endif  // HYTAP_TIERING_SECONDARY_STORE_H_
