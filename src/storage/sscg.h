#ifndef HYTAP_STORAGE_SSCG_H_
#define HYTAP_STORAGE_SSCG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "storage/row_layout.h"
#include "storage/slot_synopsis.h"
#include "tiering/buffer_manager.h"
#include "tiering/secondary_store.h"

namespace hytap {

/// Aggregated simulated-IO accounting for one engine operation.
struct IoStats {
  uint64_t device_ns = 0;      // summed per-requester device time
  uint64_t dram_ns = 0;        // DRAM access cost (cache misses)
  uint64_t retry_backoff_ns = 0;  // sub-account of device_ns: retry backoff
                                  // charges plus failed-attempt latency that
                                  // a successful re-read wrote off (NOT added
                                  // to TotalNs — already inside device_ns)
  uint64_t page_reads = 0;     // secondary-storage page fetches (misses)
  uint64_t cache_hits = 0;     // buffer-manager hits
  uint64_t retries = 0;        // page-read attempts beyond the first
  uint64_t morsels_pruned = 0; // MRC scan morsels skipped via zone maps
  uint64_t pages_pruned = 0;   // SSCG pages skipped (synopsis / candidate
                               // range) — no fetch, no latency, no CRC
  uint64_t checksum_failures = 0;  // CRC mismatches detected (and retried)
                                   // by this operation's page reads
  uint64_t verify_failures = 0;    // fetches whose stored bytes failed
                                   // verification on every retry (kDataLoss)
  uint64_t quarantined_pages = 0;  // page fetches that failed on a
                                   // quarantined page (newly dead or
                                   // fast-failed)

  uint64_t TotalNs() const { return device_ns + dram_ns; }

  /// The single place `threads`/queue-depth arguments are clamped — callers
  /// must not re-implement the `threads == 0 ? 1 : threads` ternary.
  static uint32_t ClampThreads(uint32_t threads) {
    return threads == 0 ? 1 : threads;
  }

  /// Wall-clock estimate when `threads` workers split the operation.
  ///
  /// Approximation: assumes the summed device/DRAM time divides uniformly
  /// across workers. Pruned morsels and pages contribute *zero* to TotalNs
  /// (skipped work is never charged), so the estimate stays consistent
  /// under data skipping — but when pruning leaves only a few surviving
  /// morsels, fewer than `threads` workers may carry them and the true
  /// critical path can exceed TotalNs() / threads. The divisor models
  /// aggregate capacity, not the critical path.
  uint64_t WallNs(uint32_t threads) const {
    return TotalNs() / ClampThreads(threads);
  }
  IoStats& operator+=(const IoStats& other) {
    device_ns += other.device_ns;
    dram_ns += other.dram_ns;
    retry_backoff_ns += other.retry_backoff_ns;
    page_reads += other.page_reads;
    cache_hits += other.cache_hits;
    retries += other.retries;
    morsels_pruned += other.morsels_pruned;
    pages_pruned += other.pages_pruned;
    checksum_failures += other.checksum_failures;
    verify_failures += other.verify_failures;
    quarantined_pages += other.quarantined_pages;
    return *this;
  }
};

/// A Secondary Storage Column Group (paper §II-A): a set of attributes stored
/// row-oriented and uncompressed on a secondary-storage device.
///
/// Optimized for tuple-centric access: a full-width reconstruction of the
/// group's attributes costs a single 4 KB page read. Sequential scans over a
/// single member attribute are possible but read the full row width
/// (the cost scales with the group width — Fig. 9a).
class Sscg {
 public:
  /// Writes `rows.size()` rows (member order per RowLayout) to `store`.
  /// Write timing is returned via `out_write_ns` if non-null.
  Sscg(RowLayout layout, const std::vector<Row>& rows, SecondaryStore* store,
       uint64_t* out_write_ns = nullptr);

  /// Where a column-wise write takes one member slot's values from: a typed
  /// vector with one value per row (`values`), or slot `slot` of an existing
  /// group over the same rows (`group`), whose bytes are copied raw.
  struct SlotSource {
    const ColumnValues* values = nullptr;
    const Sscg* group = nullptr;
    size_t slot = 0;
  };

  /// Column-wise write of `row_count` rows: member slot s of `layout` takes
  /// its values from `sources[s]`. Source groups are read raw from `store`,
  /// so callers verify their pages first. Writes the same pages, page ids
  /// and synopsis as the row-wise constructor over the same values.
  Sscg(RowLayout layout, size_t row_count,
       const std::vector<SlotSource>& sources, SecondaryStore* store);

  const RowLayout& layout() const { return layout_; }
  size_t row_count() const { return row_count_; }
  size_t page_count() const { return page_ids_.size(); }

  /// Total bytes occupied on secondary storage.
  size_t StorageBytes() const { return page_ids_.size() * kPageSize; }

  /// Reconstructs the group's slice of tuple `row` via `buffers` (random
  /// access pattern). Returns the values in member order, or the page-read
  /// error (kUnavailable / kDataLoss).
  StatusOr<Row> ReconstructTuple(RowId row, BufferManager* buffers,
                                 uint32_t queue_depth, IoStats* io) const;

  /// Reads a single member attribute of tuple `row` (probe path).
  StatusOr<Value> ProbeValue(RowId row, size_t slot, BufferManager* buffers,
                             uint32_t queue_depth, IoStats* io) const;

  /// Performs and accounts the buffer-manager page fetch of tuple `row`
  /// exactly as ReconstructTuple would, without materializing values. The
  /// executor uses this to keep simulated-IO accounting in deterministic
  /// position order while the materialization itself runs on worker
  /// threads against raw pages.
  Status AccountTupleFetch(RowId row, BufferManager* buffers,
                           uint32_t queue_depth, IoStats* io) const;

  /// Sequentially scans member slot `slot`, appending qualifying rows
  /// ([lo, hi] closed interval, null = unbounded) to `out`. Reads every page
  /// of the group (row-oriented layout: no projection pushdown) except pages
  /// whose slot synopsis proves them irrelevant while `ZoneMapsEnabled()`:
  /// those are skipped entirely — no buffer-manager fetch, no device
  /// latency, no checksum verify — and counted in `io->pages_pruned`. On a
  /// page error the first failure (in page order) is returned and `out` is
  /// left untouched; the IO accrued before the failure stays in `io`.
  Status ScanSlot(size_t slot, const Value* lo, const Value* hi,
                  BufferManager* buffers, uint32_t threads, PositionList* out,
                  IoStats* io) const;

  /// ScanSlot restricted to local pages [page_begin, page_end) — the
  /// executor's candidate-restricted scan limits the sequential pass to the
  /// page span covered by the surviving candidate positions. Appends
  /// qualifying rows of those pages only (global row ids, ascending).
  Status ScanSlotPages(size_t slot, const Value* lo, const Value* hi,
                       size_t page_begin, size_t page_end,
                       BufferManager* buffers, uint32_t threads,
                       PositionList* out, IoStats* io) const;

  /// Probes member slot `slot` for the candidate positions `in` (ascending),
  /// appending survivors to `out`. Consecutive candidates on the same page
  /// share one fetch. On a page error `out` is left untouched.
  Status ProbeSlot(size_t slot, const Value* lo, const Value* hi,
                   const PositionList& in, BufferManager* buffers,
                   uint32_t queue_depth, PositionList* out, IoStats* io) const;

  /// Timing-free raw access for migration/verification: reads directly from
  /// the backing store, bypassing the buffer manager and device model.
  Row RawRow(RowId row, const SecondaryStore& store) const;

  /// Timing-free raw decode of member slot `slot` into a typed vector: the
  /// rows listed in `rows` (ascending), or every row if `rows` is null.
  ColumnValues DecodeSlot(size_t slot, const SecondaryStore& store,
                          const std::vector<RowId>* rows = nullptr) const;

  /// Store page ids backing this group (migration verify-after-write).
  const std::vector<PageId>& page_ids() const { return page_ids_; }

  /// Frees the group's pages in `store` once it is replaced or dropped.
  void ReleasePages(SecondaryStore* store) const;

  /// Per-page min/max bounds of the numeric member slots, built from the
  /// intended page images when the group is written.
  const SlotSynopsis& synopsis() const { return synopsis_; }

 private:
  /// Allocates and writes the group's pages in ascending order, one
  /// WritePage per page: `fill(first_row, rows, image)` serializes rows
  /// [first_row, first_row + rows) into the zeroed page image, from which
  /// the page's synopsis is taken before the write.
  void WritePages(
      SecondaryStore* store,
      const std::function<void(size_t, size_t, uint8_t*)>& fill);

  StatusOr<const SecondaryStore::Page*> FetchRowPage(RowId row,
                                                     BufferManager* buffers,
                                                     AccessPattern pattern,
                                                     uint32_t queue_depth,
                                                     IoStats* io) const;

  RowLayout layout_;
  SlotSynopsis synopsis_;
  std::vector<PageId> page_ids_;
  size_t row_count_;
};

}  // namespace hytap

#endif  // HYTAP_STORAGE_SSCG_H_
