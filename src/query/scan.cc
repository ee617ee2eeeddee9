#include "query/scan.h"

#include "common/assert.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "storage/dictionary_column.h"
#include "storage/zone_map.h"

namespace hytap {

// Zone maps are built at morsel granularity so one pruning decision covers
// exactly one scan work unit.
static_assert(kZoneMapRows == kScanMorselRows,
              "zone granularity must match the scan morsel size");

namespace {

/// Simulated cost of a vectorized scan over a dictionary-encoded column:
/// the bit-packed code vector streams through at DRAM bandwidth.
uint64_t MrcScanCostNs(const AbstractColumn* column) {
  const uint64_t bytes = column->MemoryUsage();
  return bytes / kDramScanBytesPerNs + 1;
}

/// Registry handles resolved once; Add() is gated on MetricsEnabled().
struct ScanMetrics {
  Counter* morsels_scanned;
  Counter* morsels_pruned;
  Counter* rescan_pages_pruned;

  static ScanMetrics& Get() {
    static ScanMetrics metrics;
    return metrics;
  }

 private:
  ScanMetrics() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    morsels_scanned = registry.GetCounter("hytap_scan_morsels_scanned_total");
    morsels_pruned = registry.GetCounter("hytap_scan_morsels_pruned_total");
    rescan_pages_pruned =
        registry.GetCounter("hytap_scan_rescan_pages_pruned_total");
  }
};

}  // namespace

void ParallelScanColumn(const AbstractColumn& column, const Value* lo,
                        const Value* hi, uint32_t threads, PositionList* out,
                        IoStats* io) {
  const size_t n = column.size();
  const size_t morsels = ThreadPool::MorselCount(0, n, kScanMorselRows);
  // Survivor morsels, decided serially in row order: CanSkipRange is a pure
  // function of the immutable zone maps (and always false while
  // HYTAP_ZONE_MAPS is off), so the surviving sequence and the pruned
  // counter are identical at any worker count.
  std::vector<size_t> survivors;
  survivors.reserve(morsels);
  for (size_t m = 0; m < morsels; ++m) {
    const size_t row_begin = m * kScanMorselRows;
    const size_t row_end = std::min(n, row_begin + kScanMorselRows);
    if (column.CanSkipRange(lo, hi, row_begin, row_end)) continue;
    survivors.push_back(m);
  }
  if (io != nullptr) io->morsels_pruned += morsels - survivors.size();
  ScanMetrics::Get().morsels_pruned->Add(morsels - survivors.size());
  ScanMetrics::Get().morsels_scanned->Add(survivors.size());
  if (survivors.empty()) return;
  if (survivors.size() <= 1 || threads <= 1) {
    for (size_t m : survivors) {
      const size_t row_begin = m * kScanMorselRows;
      column.ScanBetweenRange(lo, hi, row_begin,
                              std::min(n, row_begin + kScanMorselRows), out);
    }
    return;
  }
  std::vector<PositionList> parts(survivors.size());
  ThreadPool::Global().ParallelFor(
      0, survivors.size(), 1, threads,
      [&](size_t, size_t s_begin, size_t s_end) {
        for (size_t s = s_begin; s < s_end; ++s) {
          const size_t row_begin = survivors[s] * kScanMorselRows;
          column.ScanBetweenRange(lo, hi, row_begin,
                                  std::min(n, row_begin + kScanMorselRows),
                                  &parts[s]);
        }
      });
  size_t total = out->size();
  for (const PositionList& part : parts) total += part.size();
  out->reserve(total);
  for (const PositionList& part : parts) {
    out->insert(out->end(), part.begin(), part.end());
  }
}

Status ScanMainColumn(const Table& table, ColumnId column,
                      const Predicate& pred, uint32_t threads,
                      PositionList* out, IoStats* io,
                      const PositionList* restrict_to,
                      BufferManager* buffers) {
  if (buffers == nullptr) buffers = table.buffers();
  if (table.main_row_count() == 0) return Status::Ok();
  if (table.location(column) == ColumnLocation::kDram) {
    const AbstractColumn* mrc = table.mrc(column);
    HYTAP_ASSERT(mrc != nullptr, "DRAM column without MRC");
    const uint64_t pruned_before = io != nullptr ? io->morsels_pruned : 0;
    ParallelScanColumn(*mrc, pred.LoPtr(), pred.HiPtr(), threads, out, io);
    if (io != nullptr) {
      // Skipped morsels never stream through DRAM: the modeled cost scales
      // with the surviving fraction (exactly the full cost when nothing is
      // pruned, preserving the baseline bit-for-bit).
      const uint64_t full = MrcScanCostNs(mrc);
      const uint64_t pruned = io->morsels_pruned - pruned_before;
      const uint64_t morsels =
          ThreadPool::MorselCount(0, mrc->size(), kScanMorselRows);
      io->dram_ns += morsels == 0 ? full : full - full * pruned / morsels;
    }
    return Status::Ok();
  }
  const Sscg* sscg = table.sscg();
  HYTAP_ASSERT(sscg != nullptr, "SSCG column without SSCG");
  const int slot = sscg->layout().SlotOf(column);
  HYTAP_ASSERT(slot >= 0, "column not in SSCG");
  size_t page_begin = 0;
  size_t page_end = sscg->page_count();
  if (restrict_to != nullptr && !restrict_to->empty() && ZoneMapsEnabled()) {
    // Candidates are ascending: the rescan only needs the page span they
    // cover. Pages outside it are pruned without a fetch.
    page_begin = sscg->layout().PageOf(restrict_to->front());
    page_end = sscg->layout().PageOf(restrict_to->back()) + 1;
    if (io != nullptr) {
      io->pages_pruned += sscg->page_count() - (page_end - page_begin);
    }
    ScanMetrics::Get().rescan_pages_pruned->Add(sscg->page_count() -
                                                (page_end - page_begin));
  }
  return sscg->ScanSlotPages(static_cast<size_t>(slot), pred.LoPtr(),
                             pred.HiPtr(), page_begin, page_end,
                             buffers, threads, out, io);
}

Status ProbeMainColumn(const Table& table, ColumnId column,
                       const Predicate& pred, const PositionList& in,
                       uint32_t queue_depth, PositionList* out, IoStats* io,
                       BufferManager* buffers) {
  if (buffers == nullptr) buffers = table.buffers();
  if (in.empty()) return Status::Ok();
  if (table.location(column) == ColumnLocation::kDram) {
    const AbstractColumn* mrc = table.mrc(column);
    HYTAP_ASSERT(mrc != nullptr, "DRAM column without MRC");
    mrc->Probe(pred.LoPtr(), pred.HiPtr(), in, out);
    if (io != nullptr) io->dram_ns += 2 * kDramTouchNs * in.size();
    return Status::Ok();
  }
  const Sscg* sscg = table.sscg();
  HYTAP_ASSERT(sscg != nullptr, "SSCG column without SSCG");
  const int slot = sscg->layout().SlotOf(column);
  HYTAP_ASSERT(slot >= 0, "column not in SSCG");
  return sscg->ProbeSlot(static_cast<size_t>(slot), pred.LoPtr(),
                         pred.HiPtr(), in, buffers, queue_depth, out,
                         io);
}

void ScanDeltaColumn(const Table& table, ColumnId column,
                     const Predicate& pred, PositionList* out, IoStats* io,
                     size_t limit) {
  const AbstractColumn* delta = table.delta(column);
  const size_t rows = std::min(limit, delta->size());
  if (rows == 0) return;
  if (rows == delta->size()) {
    delta->ScanBetween(pred.LoPtr(), pred.HiPtr(), out);
  } else {
    delta->ScanBetweenRange(pred.LoPtr(), pred.HiPtr(), 0, rows, out);
  }
  if (io != nullptr) {
    io->dram_ns += 2 * kDramTouchNs * rows / 8 + 1;
  }
}

void ProbeDeltaColumn(const Table& table, ColumnId column,
                      const Predicate& pred, const PositionList& in,
                      PositionList* out, IoStats* io) {
  if (in.empty()) return;
  const AbstractColumn* delta = table.delta(column);
  delta->Probe(pred.LoPtr(), pred.HiPtr(), in, out);
  if (io != nullptr) io->dram_ns += 2 * kDramTouchNs * in.size();
}

}  // namespace hytap
