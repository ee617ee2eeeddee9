#include "tiering/secondary_store.h"

#include <cstring>
#include <string>

#include "common/assert.h"
#include "common/crc32.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"

namespace hytap {

namespace {

std::string PageMessage(const char* what, PageId id) {
  return std::string(what) + " (page " + std::to_string(id) + ")";
}

/// FlightEvent::code for kStoreFault events: 1-4 mirror
/// FaultInjector::ReadFault (transient, page-dead, corrupt-bits,
/// latency-spike); 5 marks a silent write corruption.
constexpr uint16_t kFlightCodeCorruptWrite = 5;

/// Registry handles resolved once; Add()/Observe() are gated on
/// MetricsEnabled().
struct StoreMetrics {
  Counter* reads;
  Counter* read_failures;
  Counter* fast_fail_reads;
  Counter* retries;
  Counter* backoff_ns;
  Counter* checksum_failures;
  Counter* quarantined_pages;
  Counter* latency_spikes;
  Counter* transient_errors;
  Counter* page_writes;
  Counter* corrupted_writes;
  Counter* verify_failures;
  HistogramMetric* read_latency_ns;

  static StoreMetrics& Get() {
    static StoreMetrics metrics;
    return metrics;
  }

 private:
  StoreMetrics() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    reads = registry.GetCounter("hytap_store_reads_total");
    read_failures = registry.GetCounter("hytap_store_read_failures_total");
    fast_fail_reads = registry.GetCounter("hytap_store_fast_fail_reads_total");
    retries = registry.GetCounter("hytap_store_read_retries_total");
    backoff_ns = registry.GetCounter("hytap_store_retry_backoff_ns_total");
    checksum_failures =
        registry.GetCounter("hytap_store_checksum_failures_total");
    quarantined_pages =
        registry.GetCounter("hytap_store_quarantined_pages_total");
    latency_spikes = registry.GetCounter("hytap_store_latency_spikes_total");
    transient_errors =
        registry.GetCounter("hytap_store_transient_errors_total");
    page_writes = registry.GetCounter("hytap_store_page_writes_total");
    corrupted_writes =
        registry.GetCounter("hytap_store_corrupted_writes_total");
    verify_failures =
        registry.GetCounter("hytap_store_verify_failures_total");
    read_latency_ns = registry.GetHistogram("hytap_store_read_latency_ns",
                                            DurationNsBuckets());
  }
};

}  // namespace

SecondaryStore::SecondaryStore(DeviceKind device, uint64_t timing_seed,
                               FaultConfig fault_config)
    : device_(device),
      timing_seed_(timing_seed),
      fault_config_(fault_config),
      timing_rng_(timing_seed) {
  if (fault_config.AnyFaults()) {
    injector_ = std::make_unique<FaultInjector>(fault_config);
  }
}

void SecondaryStore::ConfigureFaults(FaultConfig config) {
  std::lock_guard<std::mutex> lock(mutex_);
  fault_config_ = config;
  injector_ = config.AnyFaults() ? std::make_unique<FaultInjector>(config)
                                 : nullptr;
  quarantine_.clear();
  fault_stats_ = FaultStats();
}

namespace {

/// splitmix64-style finalizer: decorrelates sequential tickets into
/// independent-looking seeds.
uint64_t MixSeed(uint64_t seed, uint64_t ticket) {
  uint64_t z = seed + (ticket + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

SecondaryStore::ReadStream::ReadStream(uint64_t timing_seed,
                                       const FaultConfig& faults)
    : timing_rng_(timing_seed) {
  if (faults.AnyFaults()) {
    injector_ = std::make_unique<FaultInjector>(faults);
  }
}

SecondaryStore::ReadStream SecondaryStore::MakeStream(uint64_t ticket) const {
  std::lock_guard<std::mutex> lock(mutex_);
  FaultConfig faults = fault_config_;
  faults.seed = MixSeed(faults.seed, ticket);
  ReadStream stream(MixSeed(timing_seed_, ticket), faults);
  stream.ticket_ = ticket;
  return stream;
}

void SecondaryStore::SetFlightStamp(uint64_t window, uint64_t sim_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  flight_window_ = window;
  flight_sim_ns_ = sim_ns;
}

PageId SecondaryStore::AllocatePage() {
  std::lock_guard<std::mutex> lock(mutex_);
  pages_.push_back(std::make_unique<Page>());
  pages_.back()->fill(0);
  // Checksum of an all-zero page (same for every fresh allocation).
  static const uint32_t kZeroPageCrc = [] {
    Page zero;
    zero.fill(0);
    return Crc32c(zero.data(), kPageSize);
  }();
  checksums_.push_back(kZeroPageCrc);
  verified_.push_back(true);  // freshly zeroed media trivially matches
  return static_cast<PageId>(pages_.size() - 1);
}

void SecondaryStore::ReleasePage(PageId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  HYTAP_ASSERT(id < pages_.size() && pages_[id] != nullptr,
               "ReleasePage: page id out of range or already released");
  pages_[id].reset();
  ++released_pages_;
}

void SecondaryStore::WritePage(PageId id, const Page& data) {
  std::lock_guard<std::mutex> lock(mutex_);
  HYTAP_ASSERT(id < pages_.size() && pages_[id] != nullptr,
               "WritePage: page id out of range or released");
  // The checksum always covers the *intended* payload; a corrupted write
  // leaves the media and the checksum disagreeing, which is exactly how
  // silent corruption is detected on read-back.
  checksums_[id] = Crc32c(data.data(), kPageSize);
  verified_[id] = false;  // read-back verifies the media once
  StoreMetrics::Get().page_writes->Add();
  if (injector_ != nullptr) {
    if (injector_->WritePage(data.data(), pages_[id]->data(), kPageSize)) {
      ++fault_stats_.corrupted_writes;
      StoreMetrics::Get().corrupted_writes->Add();
      // Write corruption is silent at write time; the flight event is what
      // lets a postmortem pin the later verify failure to its cause.
      FlightEvent event{};
      event.window = flight_window_;
      event.sim_ns = flight_sim_ns_;
      event.seq = flight_seq_++;
      event.type = uint16_t(FlightEventType::kStoreFault);
      event.code = kFlightCodeCorruptWrite;
      event.a = id;
      FlightRecorder::Global().Record(event);
    }
    return;
  }
  *pages_[id] = data;
}

StatusOr<SecondaryStore::ReadOutcome> SecondaryStore::ReadPage(
    PageId id, Page* dest, AccessPattern pattern, uint32_t queue_depth,
    ReadStream* stream, ReadFaultReport* report) {
  std::lock_guard<std::mutex> lock(mutex_);
  HYTAP_ASSERT(id < pages_.size() && pages_[id] != nullptr,
               "ReadPage: page id out of range or released");
  ++reads_;
  StoreMetrics& metrics = StoreMetrics::Get();
  metrics.reads->Add();
  // Streamed (session) reads never consult the quarantine set: a session's
  // outcome must depend only on its own draws, not on whether another query
  // happened to quarantine the page first. The page is re-evaluated and —
  // failing — re-quarantined idempotently below.
  if (stream == nullptr) {
    if (auto it = quarantine_.find(id); it != quarantine_.end()) {
      ++fault_stats_.fast_fail_reads;
      metrics.fast_fail_reads->Add();
      return it->second == StatusCode::kDataLoss
                 ? Status::DataLoss(PageMessage("quarantined: corrupt", id))
                 : Status::Unavailable(PageMessage("quarantined: dead", id));
    }
  }
  Rng& timing_rng = stream != nullptr ? stream->timing_rng_ : timing_rng_;
  FaultInjector* injector =
      stream != nullptr ? stream->injector_.get() : injector_.get();

  // Flight events from streamed reads are identified by (ticket, stream
  // sequence) — both pure functions of the session's ticket — while serial
  // (non-streamed) reads use the store-wide sequence plus the stamps set by
  // the migration path, so dumps stay bit-identical across worker counts.
  auto flight = [&](FlightEventType type, uint16_t code, uint64_t b) {
    if (!FlightRecorderEnabled()) return;
    FlightEvent event{};
    if (stream != nullptr) {
      event.ticket = stream->ticket_;
      event.seq = stream->event_seq_++;
    } else {
      event.window = flight_window_;
      event.sim_ns = flight_sim_ns_;
      event.seq = flight_seq_++;
    }
    event.type = uint16_t(type);
    event.code = code;
    event.a = id;
    event.b = b;
    FlightRecorder::Global().Record(event);
  };

  auto quarantine_page = [&](StatusCode code) {
    ++fault_stats_.failed_reads;
    metrics.read_failures->Add();
    if (quarantine_.emplace(id, code).second) {
      ++fault_stats_.quarantined_pages;
      metrics.quarantined_pages->Add();
    }
    flight(FlightEventType::kStoreQuarantine, uint16_t(code), 0);
    if (report != nullptr) report->quarantined = true;
  };

  ReadOutcome outcome;
  uint64_t backoff_ns = kRetryBackoffBaseNs;
  bool checksum_failed = false;
  for (uint32_t attempt = 0; attempt <= max_read_retries_; ++attempt) {
    if (attempt > 0) {
      outcome.latency_ns += backoff_ns;
      metrics.retries->Add();
      metrics.backoff_ns->Add(backoff_ns);
      backoff_ns *= 2;
      ++outcome.retries;
      ++fault_stats_.retries;
      if (report != nullptr) ++report->retries;
    }
    uint64_t latency_ns;
    if (pattern == AccessPattern::kRandom) {
      // Per-requester latency among `queue_depth` concurrent requesters;
      // dividing the summed latencies by the thread count yields wall time.
      latency_ns = device_.RandomReadLatencyNs(queue_depth, timing_rng);
    } else {
      // SequentialReadNs is already aggregate elapsed time for the batch, so
      // scale by the requester count to keep the same "summed device time"
      // convention as random reads (IoStats::WallNs divides it back out).
      latency_ns = device_.SequentialReadNs(/*pages=*/1, queue_depth) *
                   queue_depth;
    }
    const FaultInjector::ReadFault fault =
        injector != nullptr ? injector->NextReadFault()
                            : FaultInjector::ReadFault::kNone;
    if (fault != FaultInjector::ReadFault::kNone) {
      flight(FlightEventType::kStoreFault, uint16_t(fault), attempt);
    }
    if (fault == FaultInjector::ReadFault::kLatencySpike) {
      latency_ns = uint64_t(double(latency_ns) *
                            injector->config().latency_spike_multiplier);
      ++fault_stats_.latency_spikes;
      metrics.latency_spikes->Add();
    }
    outcome.latency_ns += latency_ns;
    if (fault == FaultInjector::ReadFault::kPageDead) {
      // Grown bad block: the device reports the page permanently
      // unreadable; retrying cannot help.
      total_read_ns_ += outcome.latency_ns;
      ++fault_stats_.dead_pages;
      quarantine_page(StatusCode::kUnavailable);
      return Status::Unavailable(PageMessage("page failed permanently", id));
    }
    if (fault == FaultInjector::ReadFault::kTransientError) {
      ++fault_stats_.transient_errors;
      metrics.transient_errors->Add();
      checksum_failed = false;
      continue;
    }
    std::memcpy(dest->data(), pages_[id]->data(), kPageSize);
    if (fault == FaultInjector::ReadFault::kCorruptBits) {
      injector->CorruptBits(dest->data(), kPageSize);
      ++fault_stats_.corrupted_reads;
    }
    // With no injector armed the memory-backed media cannot change between
    // writes, so one verification per write amortizes the CRC to zero on
    // the fault-free fast path. An armed injector can corrupt bytes in
    // transit, so then every delivered buffer is re-verified.
    if (injector != nullptr || !verified_[id]) {
      if (Crc32c(dest->data(), kPageSize) != checksums_[id]) {
        // In-transit corruption clears on a re-read; corruption of the
        // stored bytes fails every retry and is declared data loss below.
        ++fault_stats_.checksum_failures;
        metrics.checksum_failures->Add();
        flight(FlightEventType::kStoreChecksumFail, 0, attempt);
        if (report != nullptr) ++report->checksum_failures;
        checksum_failed = true;
        continue;
      }
      if (injector == nullptr) verified_[id] = true;
    }
    total_read_ns_ += outcome.latency_ns;
    metrics.read_latency_ns->Observe(outcome.latency_ns);
    // Everything but the final attempt's own device time was retry waste.
    outcome.retry_ns = outcome.latency_ns - latency_ns;
    return outcome;
  }
  total_read_ns_ += outcome.latency_ns;
  if (checksum_failed) {
    // The stored bytes themselves fail verification — the buffered-path
    // twin of a VerifyPage read-back failure, counted under the same
    // verify-failure statistics.
    ++fault_stats_.verify_failures;
    metrics.verify_failures->Add();
    if (report != nullptr) ++report->verify_failures;
    quarantine_page(StatusCode::kDataLoss);
    // Persistent corruption of the stored bytes is the postmortem trigger:
    // transient in-transit flips clear on retry and only log events.
    FlightRecorder::Global().Anomaly(
        AnomalyKind::kChecksumFailure, "store_data_loss",
        stream != nullptr ? stream->ticket_ : 0, flight_window_,
        flight_sim_ns_, id);
    return Status::DataLoss(
        PageMessage("checksum mismatch persisted across retries", id));
  }
  quarantine_page(StatusCode::kUnavailable);
  return Status::Unavailable(
      PageMessage("read failed after max retries", id));
}

Status SecondaryStore::VerifyPage(PageId id) const {
  HYTAP_ASSERT(id < pages_.size() && pages_[id] != nullptr,
               "VerifyPage: page id out of range or released");
  if (Crc32c(pages_[id]->data(), kPageSize) != checksums_[id]) {
    // PR 7 closed its eyes here: read-back failures aborted the migration
    // but never counted anywhere. Every VerifyPage failure now lands in
    // FaultStats::verify_failures + hytap_store_verify_failures_total and
    // on the flight timeline.
    std::lock_guard<std::mutex> lock(mutex_);
    ++fault_stats_.verify_failures;
    StoreMetrics::Get().verify_failures->Add();
    if (FlightRecorderEnabled()) {
      FlightEvent event{};
      event.window = flight_window_;
      event.sim_ns = flight_sim_ns_;
      event.seq = flight_seq_++;
      event.type = uint16_t(FlightEventType::kStoreVerifyFail);
      event.a = id;
      FlightRecorder::Global().Record(event);
      FlightRecorder::Global().Anomaly(AnomalyKind::kChecksumFailure,
                                       "verify_read_back", 0, flight_window_,
                                       flight_sim_ns_, id);
    }
    return Status::DataLoss(PageMessage("stored page fails checksum", id));
  }
  return Status::Ok();
}

const SecondaryStore::Page& SecondaryStore::RawPage(PageId id) const {
  HYTAP_ASSERT(id < pages_.size() && pages_[id] != nullptr,
               "RawPage: page id out of range or released");
  return *pages_[id];
}

void SecondaryStore::ResetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  total_read_ns_ = 0;
  reads_ = 0;
  fault_stats_ = FaultStats();
  fault_stats_.quarantined_pages = quarantine_.size();
}

}  // namespace hytap
