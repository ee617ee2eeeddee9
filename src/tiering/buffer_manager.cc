#include "tiering/buffer_manager.h"

#include "common/assert.h"
#include "common/metrics.h"

namespace hytap {

namespace {

/// Registry handles resolved once; Add() itself is gated on
/// MetricsEnabled().
struct BufferMetrics {
  Counter* hits;
  Counter* misses;
  Counter* evictions;
  Counter* read_failures;

  static BufferMetrics& Get() {
    static BufferMetrics metrics;
    return metrics;
  }

 private:
  BufferMetrics() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    hits = registry.GetCounter("hytap_buffer_hits_total");
    misses = registry.GetCounter("hytap_buffer_misses_total");
    evictions = registry.GetCounter("hytap_buffer_evictions_total");
    read_failures = registry.GetCounter("hytap_buffer_read_failures_total");
  }
};

}  // namespace

BufferManager::BufferManager(SecondaryStore* store, size_t frame_count)
    : store_(store), frames_(frame_count == 0 ? 1 : frame_count) {
  HYTAP_ASSERT(store != nullptr, "BufferManager requires a store");
}

StatusOr<BufferManager::Fetch> BufferManager::FetchPage(
    PageId id, AccessPattern pattern, uint32_t queue_depth) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = frame_of_.find(id);
  if (it != frame_of_.end()) {
    Frame& frame = frames_[it->second];
    frame.referenced = true;
    ++stats_.hits;
    BufferMetrics::Get().hits->Add();
    // A cached page costs roughly one DRAM page touch.
    return Fetch{&frame.data, 200, /*hit=*/true};
  }
  ++stats_.misses;
  BufferMetrics::Get().misses->Add();
  const size_t victim = FindVictim();
  Frame& frame = frames_[victim];
  if (frame.occupied) {
    frame_of_.erase(frame.page_id);
    ++stats_.evictions;
    BufferMetrics::Get().evictions->Add();
    frame.occupied = false;
    frame.page_id = kInvalidPageId;
  }
  // The store reports each read's own fault activity (success and failure
  // paths alike), so attribution stays exact even when several session
  // caches read through to one store concurrently.
  SecondaryStore::ReadFaultReport report;
  auto read =
      store_->ReadPage(id, &frame.data, pattern, queue_depth, stream_,
                       &report);
  stats_.checksum_failures += report.checksum_failures;
  stats_.verify_failures += report.verify_failures;
  stats_.quarantined_pages += report.quarantined ? 1 : 0;
  if (!read.ok()) {
    // The victim frame stays empty; the failed page is never installed, so
    // a later fetch retries the store (which fails fast if quarantined).
    ++stats_.read_failures;
    BufferMetrics::Get().read_failures->Add();
    return read.status();
  }
  stats_.read_retries += read->retries;
  frame.page_id = id;
  frame.pin_count = 0;
  frame.referenced = true;
  frame.occupied = true;
  frame_of_[id] = victim;
  return Fetch{&frame.data, read->latency_ns, /*hit=*/false, read->retries,
               report.checksum_failures, read->retry_ns};
}

void BufferManager::Pin(PageId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = frame_of_.find(id);
  HYTAP_ASSERT(it != frame_of_.end(), "Pin: page not resident");
  ++frames_[it->second].pin_count;
}

void BufferManager::Unpin(PageId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = frame_of_.find(id);
  HYTAP_ASSERT(it != frame_of_.end(), "Unpin: page not resident");
  Frame& frame = frames_[it->second];
  HYTAP_ASSERT(frame.pin_count > 0, "Unpin: page not pinned");
  --frame.pin_count;
}

size_t BufferManager::FindVictim() {
  // First pass: any unoccupied frame.
  for (size_t i = 0; i < frames_.size(); ++i) {
    if (!frames_[i].occupied) return i;
  }
  // CLOCK sweep over occupied frames, skipping pinned ones. Two full sweeps
  // guarantee a victim unless everything is pinned.
  for (size_t step = 0; step < 2 * frames_.size(); ++step) {
    Frame& frame = frames_[clock_hand_];
    const size_t current = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % frames_.size();
    if (frame.pin_count > 0) continue;
    if (frame.referenced) {
      frame.referenced = false;
      continue;
    }
    return current;
  }
  HYTAP_UNREACHABLE("all buffer frames are pinned");
}

void BufferManager::Resize(size_t frame_count) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Frame& frame : frames_) {
    HYTAP_ASSERT(frame.pin_count == 0, "Resize with pinned pages");
  }
  frames_.assign(frame_count == 0 ? 1 : frame_count, Frame());
  frame_of_.clear();
  clock_hand_ = 0;
}

void BufferManager::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& frame : frames_) {
    if (frame.occupied && frame.pin_count == 0) {
      frame_of_.erase(frame.page_id);
      frame.occupied = false;
      frame.referenced = false;
      frame.page_id = kInvalidPageId;
    }
  }
}

}  // namespace hytap
