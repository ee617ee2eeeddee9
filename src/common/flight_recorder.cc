#include "common/flight_recorder.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <set>
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
// order (shard, slot index) never participates, which is what makes dumps
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

// One slot = a seqlock'd event. The version counter is odd while a write is
// in flight; readers retry until they see a stable even version on both
// sides of the payload copy. Payload words are relaxed atomics so the
// concurrent read/write is race-free by construction (TSAN-clean) -- the
// seqlock versions supply the acquire/release ordering.
struct Slot {
  std::atomic<uint32_t> version{0};
  std::atomic<uint64_t> words[6];
};
static_assert(sizeof(FlightEvent) == 6 * sizeof(uint64_t),
              "slot payload must cover FlightEvent exactly");

struct FlightRecorder::Shard {
  Slot* slots = nullptr;
  // Next slot to write (monotonic; slot index = head % capacity). Only the
  // owning thread writes it; Snapshot() reads it with acquire.
  std::atomic<uint64_t> head{0};
  std::atomic<bool> in_use{false};
};

struct FlightRecorder::Impl {
  std::mutex shard_mutex;  // guards the shard list growth + free-list scan
  std::vector<Shard*> shards;
  std::atomic<uint64_t> dump_count{0};
  uint64_t instance_id = 0;
};

namespace {

// Registry of live recorder instances, keyed by a never-reused id. A thread's
// cached shard pointer can outlive the recorder that owns it (tests create
// short-lived recorders; the thread then records into another instance or
// exits), and an address-equality check cannot tell a dead owner from a new
// recorder reallocated at the same address. Releasing through the id registry
// makes both cases a no-op instead of a write into freed memory.
std::mutex g_live_mutex;
uint64_t g_next_instance_id = 1;
std::set<uint64_t>& LiveRecorders() {
  static std::set<uint64_t>* live = new std::set<uint64_t>();
  return *live;
}

void ReleaseShard(FlightRecorder::Shard* shard, uint64_t owner_id) {
  if (shard == nullptr) return;
  std::lock_guard<std::mutex> lock(g_live_mutex);
  if (LiveRecorders().count(owner_id) != 0) {
    shard->in_use.store(false, std::memory_order_release);
  }
}

// Per-thread shard handle, released back to the owner's free list on thread
// exit (or when the thread switches recorders) so a shard never has two
// concurrent writers.
struct ShardHandle {
  FlightRecorder::Shard* shard = nullptr;
  uint64_t owner_id = 0;
  ~ShardHandle() { ReleaseShard(shard, owner_id); }
};

}  // namespace

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::FlightRecorder(size_t events_per_shard)
    : events_per_shard_(events_per_shard == 0 ? 1 : events_per_shard),
      impl_(new Impl) {
  std::lock_guard<std::mutex> lock(g_live_mutex);
  impl_->instance_id = g_next_instance_id++;
  LiveRecorders().insert(impl_->instance_id);
}

FlightRecorder::~FlightRecorder() {
  {
    std::lock_guard<std::mutex> lock(g_live_mutex);
    LiveRecorders().erase(impl_->instance_id);
  }
  for (Shard* shard : impl_->shards) {
    delete[] shard->slots;
    delete shard;
  }
  delete impl_;
}

FlightRecorder::Shard* FlightRecorder::ClaimShard() {
  std::lock_guard<std::mutex> lock(impl_->shard_mutex);
  for (Shard* shard : impl_->shards) {
    bool expected = false;
    if (shard->in_use.compare_exchange_strong(expected, true,
                                              std::memory_order_acq_rel)) {
      return shard;
    }
  }
  Shard* shard = new Shard;
  shard->slots = new Slot[events_per_shard_];
  shard->in_use.store(true, std::memory_order_release);
  impl_->shards.push_back(shard);
  return shard;
}

void FlightRecorder::Record(const FlightEvent& event) {
  if (!FlightRecorderEnabled()) return;
  thread_local ShardHandle handle;
  // A thread may touch multiple FlightRecorder instances (tests construct
  // their own); key the cached shard on the owning instance's id, never its
  // address — a destroyed recorder's address can be reused.
  if (handle.shard == nullptr || handle.owner_id != impl_->instance_id) {
    ReleaseShard(handle.shard, handle.owner_id);
    handle.shard = ClaimShard();
    handle.owner_id = impl_->instance_id;
  }
  Shard* shard = handle.shard;
  uint64_t head = shard->head.load(std::memory_order_relaxed);
  Slot& slot = shard->slots[head % events_per_shard_];
  uint64_t words[6];
  std::memcpy(words, &event, sizeof(words));
  uint32_t version = slot.version.load(std::memory_order_relaxed);
  slot.version.store(version + 1, std::memory_order_release);  // odd: writing
  for (size_t i = 0; i < 6; ++i) {
    slot.words[i].store(words[i], std::memory_order_relaxed);
  }
  slot.version.store(version + 2, std::memory_order_release);  // even: stable
  shard->head.store(head + 1, std::memory_order_release);
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
  std::lock_guard<std::mutex> lock(impl_->shard_mutex);
  for (const Shard* shard : impl_->shards) {
    uint64_t head = shard->head.load(std::memory_order_acquire);
    uint64_t live = std::min<uint64_t>(head, events_per_shard_);
    for (uint64_t i = 0; i < live; ++i) {
      uint64_t index = (head - live + i) % events_per_shard_;
      const Slot& slot = shard->slots[index];
      FlightEvent event;
      for (int attempt = 0; attempt < 1024; ++attempt) {
        uint32_t before = slot.version.load(std::memory_order_acquire);
        if (before & 1u) continue;  // write in flight
        uint64_t words[6];
        for (size_t w = 0; w < 6; ++w) {
          words[w] = slot.words[w].load(std::memory_order_relaxed);
        }
        std::atomic_thread_fence(std::memory_order_acquire);
        uint32_t after = slot.version.load(std::memory_order_relaxed);
        if (before == after) {
          std::memcpy(&event, words, sizeof(event));
          if (event.type != static_cast<uint16_t>(FlightEventType::kNone)) {
            events.push_back(event);
          }
          break;
        }
      }
    }
  }
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
  uint64_t index = impl_->dump_count.fetch_add(1, std::memory_order_relaxed);
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
  std::lock_guard<std::mutex> lock(impl_->shard_mutex);
  for (Shard* shard : impl_->shards) {
    for (size_t i = 0; i < events_per_shard_; ++i) {
      shard->slots[i].version.store(0, std::memory_order_relaxed);
      for (auto& word : shard->slots[i].words) {
        word.store(0, std::memory_order_relaxed);
      }
    }
    shard->head.store(0, std::memory_order_release);
  }
  impl_->dump_count.store(0, std::memory_order_relaxed);
}

uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(impl_->shard_mutex);
  uint64_t total = 0;
  for (const Shard* shard : impl_->shards) {
    total += shard->head.load(std::memory_order_acquire);
  }
  return total;
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
