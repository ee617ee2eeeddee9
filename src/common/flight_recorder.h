#ifndef HYTAP_COMMON_FLIGHT_RECORDER_H_
#define HYTAP_COMMON_FLIGHT_RECORDER_H_

// Process-wide, always-on flight recorder: one mutex-guarded ring of
// fixed-size binary events correlating the serving, re-tiering, and
// fault-injection loops on one timeline.
//
// Determinism contract: dumps are canonicalised by sorting on the event's
// deterministic fields (window, sim_ns, ticket, type, code, seq, a, b) --
// never on physical arrival order -- so a snapshot taken at a quiesced point
// is bit-identical across 1/2/4 worker threads and across runs with the same
// fault schedule. Event producers only stamp fields that are themselves
// deterministic at the emission site (ticket-order flush points, per-stream
// sequence numbers, monitor window indices); wall-clock time never enters an
// event.
//
// Concurrency: Record() takes the ring's mutex for one store and calls
// nothing while it holds it but the ring's own growth. Producers fire per
// session event, re-tier step, merge, migration, SLO transition or injected
// fault -- a few thousand events per second on the busiest serving
// workload, far below the rate one lock sustains (DESIGN.md §16).
//
// Gating: SetFlightRecorderEnabled (default on), which the overhead bench
// and tests flip. When off, Record() is a single relaxed atomic load +
// branch.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace hytap {

// Event type tags. Values are part of the binary dump format; append only.
enum class FlightEventType : uint16_t {
  kNone = 0,
  // Serving front end (session manager).
  kSessionAdmit = 1,     // a = query class, b = deadline_ns
  kSessionReject = 2,    // a = query class; code = StatusCode
  kSessionDispatch = 3,  // a = query class
  kSessionShed = 4,      // a = query class, b = simulated queue-wait ns —
                         // shed queries never execute, so this is NOT a
                         // latency; identically 0 on the simulated clock
                         // (admission/queueing are instantaneous there)
  kSessionCancel = 5,    // a = query class, b = simulated ns accrued before
                         // the abort (0 when cancelled while still queued)
  kSessionComplete = 6,  // a = query class, b = end-to-end simulated latency
                         // ns (== the ticket's phase-vector sum)
  // Re-tiering daemon.
  kRetierTrigger = 7,     // a = plan id, b = step count; code = reason
  kRetierStep = 8,        // a = column, b = bytes; code = 1 if to DRAM
  kRetierQuarantine = 9,  // a = column, b = bytes
  kRetierAbort = 10,      // a = plan id, b = steps remaining
  kRetierPlanDone = 11,   // a = plan id, b = steps applied; code=1 aborted
  // Secondary store fault machinery.
  kStoreFault = 12,         // a = page id, b = retry index; code = ReadFault
  kStoreChecksumFail = 13,  // a = page id, b = retry index
  kStoreQuarantine = 14,    // a = page id; code = terminal StatusCode
  kStoreVerifyFail = 15,    // a = page id
  // Structural boundaries.
  kMergeBegin = 16,      // a = delta rows merged
  kMergeEnd = 17,        // a = delta rows merged
  kMigrationBegin = 18,  // a = column, code = 1 if to DRAM
  kMigrationEnd = 19,    // a = column, code = outcome (0 ok, 1 failed)
  // SLO monitor.
  kSloBreach = 20,  // a = query class, b = burn rate (milli); code = window
  kSloClear = 21,   // a = query class
  // Anomaly marker recorded when a dump is triggered. code = trigger kind.
  kAnomaly = 22,
  // Latency profiler tail attribution (one per attributed ticket).
  // a = dominant QueryPhase, b = end-to-end simulated latency ns;
  // code = query class << 2 | (p99-tail ? 2 : 0) | (SLO breach ? 1 : 0).
  kPhaseAttribution = 23,
};

// Anomaly trigger kinds (FlightEvent::code on kAnomaly events).
enum class AnomalyKind : uint16_t {
  kManual = 0,
  kSloBreach = 1,
  kStickyQuarantine = 2,
  kRetierAbort = 3,
  kChecksumFailure = 4,
};

// Fixed-size binary event. 48 bytes, no padding: the dump format writes these
// verbatim, so the layout is part of the on-disk contract.
struct FlightEvent {
  uint64_t window;  // workload-monitor window index (0 when not applicable)
  uint64_t sim_ns;  // simulated nanoseconds (0 when not applicable)
  uint64_t ticket;  // session ticket / plan id / 0
  uint64_t a;       // type-specific operand
  uint64_t b;       // type-specific operand
  uint32_t seq;     // per-source sequence number (tie-break within a source)
  uint16_t type;    // FlightEventType
  uint16_t code;    // type-specific small operand (reason / status / flags)
};
static_assert(sizeof(FlightEvent) == 48, "FlightEvent must stay 48 bytes");

// Master switch, process-wide (default on).
bool FlightRecorderEnabled();
// Test/bench override of the master switch.
void SetFlightRecorderEnabled(bool enabled);

class FlightRecorder {
 public:
  // Process-wide singleton with the default capacity.
  static FlightRecorder& Global();

  // `capacity` bounds the events held for the whole process (0 acts as 1).
  // The ring grows on demand up to it: a reservation made up front can be
  // carved from heap pages that earlier allocations already touched, so it
  // would cost resident memory however few events are recorded.
  explicit FlightRecorder(size_t capacity = size_t(1) << 16);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Records one event, overwriting the oldest once the ring is full. Safe
  // from any thread. No-op when the recorder is disabled.
  void Record(const FlightEvent& event);

  // Convenience: fills type/code/ticket/window/sim_ns/a/b and records.
  void Record(FlightEventType type, uint16_t code, uint64_t ticket,
              uint64_t window, uint64_t sim_ns, uint64_t a = 0,
              uint64_t b = 0);

  // Copies out every held event, canonically sorted on the deterministic
  // field tuple. Safe to call concurrently with writers; byte-stable when
  // writers are quiesced.
  std::vector<FlightEvent> Snapshot() const;

  // Serialises Snapshot() to `path` in the binary dump format. Returns true
  // on success.
  bool DumpTo(const std::string& path, const std::string& reason) const;

  // Anomaly hook: records a kAnomaly event and, when HYTAP_FLIGHT_DUMP is on
  // (default on), writes a rate-limited dump file
  // `<HYTAP_FLIGHT_DUMP_DIR>/flight_<NNN>_<reason>.bin` (at most
  // HYTAP_FLIGHT_MAX_DUMPS per process, default 8). Returns the path of the
  // written dump, or an empty string when none was written.
  std::string Anomaly(AnomalyKind kind, const std::string& reason,
                      uint64_t ticket = 0, uint64_t window = 0,
                      uint64_t sim_ns = 0, uint64_t a = 0, uint64_t b = 0);

  // Clears the ring and the anomaly-dump counter. Callers must be quiesced
  // (tests / bench reset points).
  void Reset();

  // Events recorded since construction/Reset, overwritten ones included.
  uint64_t total_recorded() const;

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  // Guarded by mutex_. head_ counts every event recorded; the next one goes
  // to ring_[head_ % capacity_] once the ring is full.
  std::vector<FlightEvent> ring_;
  uint64_t head_ = 0;
  std::atomic<uint64_t> dump_count_{0};
};

// Binary dump header. Little-endian, packed.
struct FlightDumpHeader {
  char magic[4];        // "HYFR"
  uint32_t version;     // 1
  uint32_t event_size;  // sizeof(FlightEvent)
  uint32_t reserved;
  uint64_t event_count;
  char reason[64];  // NUL-padded trigger description
};
static_assert(sizeof(FlightDumpHeader) == 88, "dump header layout");

// Reads a dump written by FlightRecorder::DumpTo. Returns false on short
// read / bad magic / size mismatch, or when the header claims more events
// than the file holds. `reason` may be null.
bool ReadFlightDump(const std::string& path, std::vector<FlightEvent>* events,
                    std::string* reason);

// Human-readable name for an event type ("session_admit", "retier_step", ...).
const char* FlightEventTypeName(uint16_t type);

}  // namespace hytap

#endif  // HYTAP_COMMON_FLIGHT_RECORDER_H_
