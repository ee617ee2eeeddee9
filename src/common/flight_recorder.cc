#include "common/flight_recorder.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <tuple>

#include "common/env.h"
#include "common/metrics.h"

namespace hytap {
namespace {

std::atomic<bool> g_enabled{true};

struct FlightMetrics {
  Counter* events;
  Counter* dumps;
  static FlightMetrics& Get() {
    static FlightMetrics m{
        MetricsRegistry::Global().GetCounter("hytap_flight_events_total"),
        MetricsRegistry::Global().GetCounter("hytap_flight_dumps_total")};
    return m;
  }
};

// Canonical ordering: the full deterministic field tuple. Physical arrival
// order (ring slot) never participates, which is what makes dumps
// bit-identical across worker counts.
bool CanonicalLess(const FlightEvent& x, const FlightEvent& y) {
  return std::tie(x.window, x.sim_ns, x.ticket, x.type, x.code, x.seq, x.a,
                  x.b) < std::tie(y.window, y.sim_ns, y.ticket, y.type, y.code,
                                  y.seq, y.a, y.b);
}

}  // namespace

bool FlightRecorderEnabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

void SetFlightRecorderEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::Record(const FlightEvent& event) {
  if (!FlightRecorderEnabled()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (ring_.size() < capacity_) {
      ring_.push_back(event);
    } else {
      ring_[head_ % capacity_] = event;
    }
    ++head_;
  }
  FlightMetrics::Get().events->Add();
}

void FlightRecorder::Record(FlightEventType type, uint16_t code,
                            uint64_t ticket, uint64_t window, uint64_t sim_ns,
                            uint64_t a, uint64_t b) {
  if (!FlightRecorderEnabled()) return;
  FlightEvent event;
  event.window = window;
  event.sim_ns = sim_ns;
  event.ticket = ticket;
  event.a = a;
  event.b = b;
  event.seq = 0;
  event.type = static_cast<uint16_t>(type);
  event.code = code;
  Record(event);
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    events = ring_;
  }
  // kNone marks "no event" and never reaches a dump.
  std::erase_if(events, [](const FlightEvent& event) {
    return event.type == static_cast<uint16_t>(FlightEventType::kNone);
  });
  std::sort(events.begin(), events.end(), CanonicalLess);
  return events;
}

bool FlightRecorder::DumpTo(const std::string& path,
                            const std::string& reason) const {
  std::vector<FlightEvent> events = Snapshot();
  FlightDumpHeader header;
  std::memset(&header, 0, sizeof(header));
  std::memcpy(header.magic, "HYFR", 4);
  header.version = 1;
  header.event_size = sizeof(FlightEvent);
  header.event_count = events.size();
  std::strncpy(header.reason, reason.c_str(), sizeof(header.reason) - 1);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  bool ok = std::fwrite(&header, sizeof(header), 1, file) == 1;
  if (ok && !events.empty()) {
    ok = std::fwrite(events.data(), sizeof(FlightEvent), events.size(),
                     file) == events.size();
  }
  ok = (std::fclose(file) == 0) && ok;
  if (ok) FlightMetrics::Get().dumps->Add();
  return ok;
}

std::string FlightRecorder::Anomaly(AnomalyKind kind,
                                    const std::string& reason, uint64_t ticket,
                                    uint64_t window, uint64_t sim_ns,
                                    uint64_t a, uint64_t b) {
  if (!FlightRecorderEnabled()) return "";
  Record(FlightEventType::kAnomaly, static_cast<uint16_t>(kind), ticket,
         window, sim_ns, a, b);
  if (!EnvBool("HYTAP_FLIGHT_DUMP", true)) return "";
  uint64_t max_dumps = EnvU64("HYTAP_FLIGHT_MAX_DUMPS", 8);
  uint64_t index = dump_count_.fetch_add(1, std::memory_order_relaxed);
  if (index >= max_dumps) return "";
  const char* dir = std::getenv("HYTAP_FLIGHT_DUMP_DIR");
  std::string base = (dir != nullptr && *dir != '\0') ? dir : ".";
  std::string slug;
  for (char c : reason) {
    slug.push_back(
        (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_');
  }
  if (slug.size() > 40) slug.resize(40);
  char name[96];
  std::snprintf(name, sizeof(name), "/flight_%03llu_%s.bin",
                static_cast<unsigned long long>(index), slug.c_str());
  std::string path = base + name;
  if (!DumpTo(path, reason)) return "";
  return path;
}

void FlightRecorder::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  head_ = 0;
  dump_count_.store(0, std::memory_order_relaxed);
}

uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return head_;
}

bool ReadFlightDump(const std::string& path, std::vector<FlightEvent>* events,
                    std::string* reason) {
  std::error_code size_error;
  const uintmax_t bytes = std::filesystem::file_size(path, size_error);
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  FlightDumpHeader header;
  bool ok = !size_error && bytes >= sizeof(header) &&
            std::fread(&header, sizeof(header), 1, file) == 1 &&
            std::memcmp(header.magic, "HYFR", 4) == 0 && header.version == 1 &&
            header.event_size == sizeof(FlightEvent);
  // Bound the claimed count by the bytes the file holds before allocating:
  // a corrupt header must fail cleanly, not request an arbitrary allocation.
  ok = ok &&
       header.event_count <= (bytes - sizeof(header)) / sizeof(FlightEvent);
  if (ok) {
    events->resize(header.event_count);
    if (header.event_count > 0) {
      ok = std::fread(events->data(), sizeof(FlightEvent), header.event_count,
                      file) == header.event_count;
    }
    if (reason != nullptr) {
      header.reason[sizeof(header.reason) - 1] = '\0';
      *reason = header.reason;
    }
  }
  std::fclose(file);
  return ok;
}

const char* FlightEventTypeName(uint16_t type) {
  switch (static_cast<FlightEventType>(type)) {
    case FlightEventType::kNone: return "none";
    case FlightEventType::kSessionAdmit: return "session_admit";
    case FlightEventType::kSessionReject: return "session_reject";
    case FlightEventType::kSessionDispatch: return "session_dispatch";
    case FlightEventType::kSessionShed: return "session_shed";
    case FlightEventType::kSessionCancel: return "session_cancel";
    case FlightEventType::kSessionComplete: return "session_complete";
    case FlightEventType::kRetierTrigger: return "retier_trigger";
    case FlightEventType::kRetierStep: return "retier_step";
    case FlightEventType::kRetierQuarantine: return "retier_quarantine";
    case FlightEventType::kRetierAbort: return "retier_abort";
    case FlightEventType::kRetierPlanDone: return "retier_plan_done";
    case FlightEventType::kStoreFault: return "store_fault";
    case FlightEventType::kStoreChecksumFail: return "store_checksum_fail";
    case FlightEventType::kStoreQuarantine: return "store_quarantine";
    case FlightEventType::kStoreVerifyFail: return "store_verify_fail";
    case FlightEventType::kMergeBegin: return "merge_begin";
    case FlightEventType::kMergeEnd: return "merge_end";
    case FlightEventType::kMigrationBegin: return "migration_begin";
    case FlightEventType::kMigrationEnd: return "migration_end";
    case FlightEventType::kSloBreach: return "slo_breach";
    case FlightEventType::kSloClear: return "slo_clear";
    case FlightEventType::kAnomaly: return "anomaly";
    case FlightEventType::kPhaseAttribution: return "phase_attribution";
  }
  return "unknown";
}

}  // namespace hytap
