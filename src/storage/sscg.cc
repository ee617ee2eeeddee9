#include "storage/sscg.h"

#include <algorithm>
#include <cstring>

#include "common/assert.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "storage/zone_map.h"

namespace hytap {

namespace {

bool InRange(const Value& v, const Value* lo, const Value* hi) {
  if (lo != nullptr && v < *lo) return false;
  if (hi != nullptr && *hi < v) return false;
  return true;
}

/// Registry handles resolved once; Add() is gated on MetricsEnabled().
struct SscgMetrics {
  Counter* pages_scanned;
  Counter* pages_pruned;
  Counter* probe_rows;

  static SscgMetrics& Get() {
    static SscgMetrics metrics;
    return metrics;
  }

 private:
  SscgMetrics() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    pages_scanned = registry.GetCounter("hytap_sscg_pages_scanned_total");
    pages_pruned = registry.GetCounter("hytap_sscg_pages_pruned_total");
    probe_rows = registry.GetCounter("hytap_sscg_probe_rows_total");
  }
};

/// Folds one successful buffer-manager fetch into `io`. Recovered-by-retry
/// CRC mismatches ride along on the miss path; unrecoverable ones surface as
/// fetch errors and are charged by AccountFetchError instead.
void AccountFetch(const BufferManager::Fetch& fetch, IoStats* io) {
  if (io == nullptr) return;
  if (fetch.hit) {
    io->dram_ns += fetch.latency_ns;
    ++io->cache_hits;
  } else {
    io->device_ns += fetch.latency_ns;
    io->retry_backoff_ns += fetch.retry_ns;
    ++io->page_reads;
    io->retries += fetch.retries;
    io->checksum_failures += fetch.checksum_failures;
  }
}

/// Charges a failed fetch of store page `id`: if the page is (now)
/// quarantined — newly declared dead/corrupt by this very read, or already
/// dead and fast-failed — the operation records it in `quarantined_pages`,
/// and a kDataLoss failure (stored bytes failing verification on every
/// retry) additionally lands in `verify_failures`.
void AccountFetchError(PageId id, const Status& status, BufferManager* buffers,
                       IoStats* io) {
  if (io == nullptr) return;
  if (status.code() == StatusCode::kDataLoss) ++io->verify_failures;
  if (buffers->store()->IsQuarantined(id)) {
    ++io->quarantined_pages;
  }
}

}  // namespace

Sscg::Sscg(RowLayout layout, const std::vector<Row>& rows,
           SecondaryStore* store, uint64_t* out_write_ns)
    : layout_(std::move(layout)), row_count_(rows.size()) {
  WritePages(store, [&](size_t first_row, size_t count, uint8_t* image) {
    for (size_t i = 0; i < count; ++i) {
      layout_.SerializeRow(rows[first_row + i],
                           image + i * layout_.row_width());
    }
  });
  if (out_write_ns != nullptr) {
    *out_write_ns =
        store->device().SequentialWriteNs(page_ids_.size(), /*threads=*/1);
  }
}

Sscg::Sscg(RowLayout layout, size_t row_count,
           const std::vector<SlotSource>& sources, SecondaryStore* store)
    : layout_(std::move(layout)), row_count_(row_count) {
  HYTAP_ASSERT(sources.size() == layout_.member_count(),
               "one source per member slot");
  for (size_t slot = 0; slot < sources.size(); ++slot) {
    const SlotSource& source = sources[slot];
    if (source.values != nullptr) {
      HYTAP_ASSERT(source.values->index() == size_t(layout_.slot_type(slot)),
                   "source values type mismatch");
      HYTAP_ASSERT(std::visit([](const auto& v) { return v.size(); },
                              *source.values) == row_count,
                   "source values row count mismatch");
    } else {
      HYTAP_ASSERT(source.group != nullptr && source.group->row_count_ ==
                                                  row_count,
                   "source group row count mismatch");
      HYTAP_ASSERT(source.group->layout_.slot_width(source.slot) ==
                       layout_.slot_width(slot),
                   "source slot width mismatch");
    }
  }
  const size_t stride = layout_.row_width();
  WritePages(store, [&](size_t first_row, size_t count, uint8_t* image) {
    for (size_t slot = 0; slot < sources.size(); ++slot) {
      const SlotSource& source = sources[slot];
      const size_t width = layout_.slot_width(slot);
      uint8_t* dest = image + layout_.slot_offset(slot);
      if (source.values != nullptr) {
        std::visit(
            [&](const auto& values) {
              for (size_t i = 0; i < count; ++i) {
                WriteFixed(values[first_row + i], dest + i * stride, width);
              }
            },
            *source.values);
        continue;
      }
      // Copy page by page of the source group.
      const RowLayout& from = source.group->layout_;
      const size_t from_stride = from.row_width();
      for (size_t i = 0; i < count;) {
        const RowId row = first_row + i;
        const size_t page = from.PageOf(row);
        const size_t run =
            std::min(count - i, (page + 1) * from.rows_per_page() - row);
        const uint8_t* src =
            store->RawPage(source.group->page_ids_[page]).data() +
            from.OffsetInPage(row) + from.slot_offset(source.slot);
        for (size_t k = 0; k < run; ++k) {
          std::memcpy(dest + (i + k) * stride, src + k * from_stride, width);
        }
        i += run;
      }
    }
  });
}

void Sscg::WritePages(
    SecondaryStore* store,
    const std::function<void(size_t, size_t, uint8_t*)>& fill) {
  HYTAP_ASSERT(store != nullptr, "SSCG requires a store");
  const size_t pages = layout_.PageCountFor(row_count_);
  synopsis_ = SlotSynopsis(layout_, pages);
  page_ids_.reserve(pages);
  SecondaryStore::Page page;
  for (size_t p = 0; p < pages; ++p) {
    page.fill(0);
    const size_t first_row = p * layout_.rows_per_page();
    const size_t count =
        std::min(row_count_, first_row + layout_.rows_per_page()) - first_row;
    fill(first_row, count, page.data());
    synopsis_.AddPage(layout_, p, page.data(), count);
    const PageId id = store->AllocatePage();
    store->WritePage(id, page);
    page_ids_.push_back(id);
  }
}

ColumnValues Sscg::DecodeSlot(size_t slot, const SecondaryStore& store,
                              const std::vector<RowId>* rows) const {
  HYTAP_ASSERT(slot < layout_.member_count(), "slot out of range");
  ColumnValues out = MakeColumnValues(layout_.slot_type(slot));
  const size_t offset = layout_.slot_offset(slot);
  const size_t width = layout_.slot_width(slot);
  std::visit(
      [&](auto& values) {
        using T = typename std::decay_t<decltype(values)>::value_type;
        const uint8_t* page = nullptr;
        size_t page_index = 0;
        auto read = [&](RowId row) {
          HYTAP_ASSERT(row < row_count_, "SSCG row out of range");
          if (page == nullptr || layout_.PageOf(row) != page_index) {
            page_index = layout_.PageOf(row);
            page = store.RawPage(page_ids_[page_index]).data();
          }
          values.push_back(
              ReadFixed<T>(page + layout_.OffsetInPage(row) + offset, width));
        };
        if (rows == nullptr) {
          values.reserve(row_count_);
          for (RowId row = 0; row < row_count_; ++row) read(row);
        } else {
          values.reserve(rows->size());
          for (RowId row : *rows) read(row);
        }
      },
      out);
  return out;
}

void Sscg::ReleasePages(SecondaryStore* store) const {
  for (PageId id : page_ids_) store->ReleasePage(id);
}

StatusOr<const SecondaryStore::Page*> Sscg::FetchRowPage(
    RowId row, BufferManager* buffers, AccessPattern pattern,
    uint32_t queue_depth, IoStats* io) const {
  HYTAP_ASSERT(row < row_count_, "SSCG row out of range");
  const PageId local = layout_.PageOf(row);
  const PageId global = page_ids_[local];
  auto fetch = buffers->FetchPage(global, pattern, queue_depth);
  if (!fetch.ok()) {
    AccountFetchError(global, fetch.status(), buffers, io);
    return fetch.status();
  }
  AccountFetch(*fetch, io);
  return fetch->page;
}

StatusOr<Row> Sscg::ReconstructTuple(RowId row, BufferManager* buffers,
                                     uint32_t queue_depth, IoStats* io) const {
  auto page =
      FetchRowPage(row, buffers, AccessPattern::kRandom, queue_depth, io);
  if (!page.ok()) return page.status();
  return layout_.DeserializeRow((*page)->data() + layout_.OffsetInPage(row));
}

StatusOr<Value> Sscg::ProbeValue(RowId row, size_t slot, BufferManager* buffers,
                                 uint32_t queue_depth, IoStats* io) const {
  auto page =
      FetchRowPage(row, buffers, AccessPattern::kRandom, queue_depth, io);
  if (!page.ok()) return page.status();
  return layout_.DeserializeSlot((*page)->data() + layout_.OffsetInPage(row),
                                 slot);
}

Status Sscg::ScanSlot(size_t slot, const Value* lo, const Value* hi,
                      BufferManager* buffers, uint32_t threads,
                      PositionList* out, IoStats* io) const {
  return ScanSlotPages(slot, lo, hi, 0, page_ids_.size(), buffers, threads,
                       out, io);
}

Status Sscg::ScanSlotPages(size_t slot, const Value* lo, const Value* hi,
                           size_t page_begin, size_t page_end,
                           BufferManager* buffers, uint32_t threads,
                           PositionList* out, IoStats* io) const {
  page_end = std::min(page_end, page_ids_.size());
  if (page_begin >= page_end) return Status::Ok();
  // Survivor set, decided serially in page order: each pruning decision is a
  // pure function of the immutable per-page synopsis, so the surviving page
  // sequence — and with it every fetch, fault draw, and counter below — is
  // identical at any worker count, and a pruned page consumes nothing: no
  // buffer-manager fetch, no device latency, no checksum verify, no fault
  // draw.
  const bool skipping = ZoneMapsEnabled() && synopsis_.has_slot(slot);
  std::vector<size_t> survivors;
  survivors.reserve(page_end - page_begin);
  for (size_t local = page_begin; local < page_end; ++local) {
    if (skipping && synopsis_.Prunes(local, slot, lo, hi)) continue;
    survivors.push_back(local);
  }
  if (io != nullptr) {
    io->pages_pruned += (page_end - page_begin) - survivors.size();
  }
  SscgMetrics::Get().pages_pruned->Add((page_end - page_begin) -
                                       survivors.size());
  SscgMetrics::Get().pages_scanned->Add(survivors.size());
  if (survivors.empty()) return Status::Ok();
  // Accounting pass, single-threaded and in page order: pulls every
  // surviving page through the cache exactly as the serial scan did, so
  // hit/miss counts, CLOCK state, simulated latencies — and the
  // fault-injection schedule — are identical for any worker count (the
  // `threads` queue depth still scales the modeled latency). A page error
  // aborts here, before any position is produced, so the first failure in
  // page order wins regardless of thread count.
  for (size_t local : survivors) {
    auto fetch = buffers->FetchPage(page_ids_[local],
                                    AccessPattern::kSequential, threads);
    if (!fetch.ok()) {
      AccountFetchError(page_ids_[local], fetch.status(), buffers, io);
      return fetch.status();
    }
    AccountFetch(*fetch, io);
  }
  // Filter pass: morsels of whole surviving pages, each worker
  // deserializing into its own position list; concatenation in morsel order
  // yields the ascending serial output (survivors are ascending). Workers
  // read page payloads via the raw store (identical bytes, no cache
  // mutation, no timing).
  const SecondaryStore* store = buffers->store();
  HYTAP_ASSERT(store != nullptr, "buffer manager without a store");
  const size_t morsels =
      ThreadPool::MorselCount(0, survivors.size(), kScanMorselPages);
  std::vector<PositionList> parts(morsels);
  ThreadPool::Global().ParallelFor(
      0, survivors.size(), kScanMorselPages, threads,
      [&](size_t m, size_t s_begin, size_t s_end) {
        PositionList& part = parts[m];
        for (size_t s = s_begin; s < s_end; ++s) {
          const size_t local = survivors[s];
          const SecondaryStore::Page& page = store->RawPage(page_ids_[local]);
          RowId row = local * layout_.rows_per_page();
          const size_t rows_here =
              std::min<size_t>(layout_.rows_per_page(), row_count_ - row);
          for (size_t r = 0; r < rows_here; ++r, ++row) {
            const Value v = layout_.DeserializeSlot(
                page.data() + layout_.OffsetInPage(row), slot);
            if (InRange(v, lo, hi)) part.push_back(row);
          }
        }
      });
  size_t total = out->size();
  for (const PositionList& part : parts) total += part.size();
  out->reserve(total);
  for (const PositionList& part : parts) {
    out->insert(out->end(), part.begin(), part.end());
  }
  return Status::Ok();
}

Status Sscg::AccountTupleFetch(RowId row, BufferManager* buffers,
                               uint32_t queue_depth, IoStats* io) const {
  return FetchRowPage(row, buffers, AccessPattern::kRandom, queue_depth, io)
      .status();
}

Row Sscg::RawRow(RowId row, const SecondaryStore& store) const {
  HYTAP_ASSERT(row < row_count_, "SSCG row out of range");
  const SecondaryStore::Page& page = store.RawPage(page_ids_[layout_.PageOf(row)]);
  return layout_.DeserializeRow(page.data() + layout_.OffsetInPage(row));
}

Status Sscg::ProbeSlot(size_t slot, const Value* lo, const Value* hi,
                       const PositionList& in, BufferManager* buffers,
                       uint32_t queue_depth, PositionList* out,
                       IoStats* io) const {
  SscgMetrics::Get().probe_rows->Add(in.size());
  PositionList survivors;
  for (RowId row : in) {
    auto v = ProbeValue(row, slot, buffers, queue_depth, io);
    if (!v.ok()) return v.status();  // `out` untouched: no partial results
    if (InRange(*v, lo, hi)) survivors.push_back(row);
  }
  out->insert(out->end(), survivors.begin(), survivors.end());
  return Status::Ok();
}

}  // namespace hytap
