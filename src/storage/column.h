#ifndef HYTAP_STORAGE_COLUMN_H_
#define HYTAP_STORAGE_COLUMN_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/types.h"
#include "storage/value.h"

namespace hytap {

/// Schema entry for one attribute.
struct ColumnDefinition {
  std::string name;
  DataType type = DataType::kInt32;
  /// Fixed on-page width for strings in an SSCG (bytes); ignored otherwise.
  size_t string_width = 16;

  size_t FixedWidthBytes() const { return FixedWidth(type, string_width); }
};

using Schema = std::vector<ColumnDefinition>;

/// One column's values, unboxed. The alternative index equals the column's
/// DataType (as in Value), so loads, merges and migrations move one typed
/// vector per column instead of one boxed Value per cell.
using ColumnValues =
    std::variant<std::vector<int32_t>, std::vector<int64_t>,
                 std::vector<float>, std::vector<double>,
                 std::vector<std::string>>;

/// An empty ColumnValues of `type`.
inline ColumnValues MakeColumnValues(DataType type) {
  switch (type) {
    case DataType::kInt32:
      return std::vector<int32_t>();
    case DataType::kInt64:
      return std::vector<int64_t>();
    case DataType::kFloat:
      return std::vector<float>();
    case DataType::kDouble:
      return std::vector<double>();
    case DataType::kString:
      break;
  }
  return std::vector<std::string>();
}

/// Sorted list of qualifying row positions produced by scans and consumed by
/// probes / tuple reconstruction (paper §I-A: operators pass position lists).
using PositionList = std::vector<RowId>;

/// Type-erased read interface shared by DRAM-resident column formats
/// (dictionary-encoded MRC columns and delta value columns).
///
/// Range predicates are closed intervals with optional bounds: ScanBetween
/// with lo == hi is an equality scan; a null bound is unbounded.
class AbstractColumn {
 public:
  virtual ~AbstractColumn() = default;

  virtual DataType type() const = 0;
  virtual size_t size() const = 0;
  virtual size_t distinct_count() const = 0;

  /// Heap bytes used by the column (payload + encoding structures).
  virtual size_t MemoryUsage() const = 0;

  /// Materializes one cell.
  virtual Value GetValue(RowId row) const = 0;

  /// Appends rows in [0, size) with lo <= value <= hi to `out` (ascending).
  virtual void ScanBetween(const Value* lo, const Value* hi,
                           PositionList* out) const = 0;

  /// Morsel-sized unit of ScanBetween: appends rows in
  /// [row_begin, min(row_end, size)) with lo <= value <= hi to `out`
  /// (ascending). Must be safe to call concurrently on disjoint ranges;
  /// concatenating the outputs of consecutive ranges equals ScanBetween.
  /// Encodings with batch kernels override this (DictionaryColumn scans
  /// bit-packed codes word-at-a-time).
  virtual void ScanBetweenRange(const Value* lo, const Value* hi,
                                size_t row_begin, size_t row_end,
                                PositionList* out) const {
    row_end = std::min(row_end, size());
    for (size_t row = row_begin; row < row_end; ++row) {
      const Value v = GetValue(row);
      if (lo != nullptr && v < *lo) continue;
      if (hi != nullptr && *hi < v) continue;
      out->push_back(row);
    }
  }

  /// Filters `in` (ascending positions), keeping rows whose value lies in
  /// [lo, hi]; appends survivors to `out`. This is the "probe" path used
  /// after earlier predicates reduced the candidate set (paper §II-B).
  virtual void Probe(const Value* lo, const Value* hi, const PositionList& in,
                     PositionList* out) const = 0;

  /// Conservative pre-filter consulted by the scan driver before any decode
  /// work is scheduled: true when encoding metadata (dictionary domain, zone
  /// maps) proves no row in [row_begin, row_end) satisfies [lo, hi]. False
  /// means "may match" — never a correctness statement. Implementations must
  /// honor the HYTAP_ZONE_MAPS knob and return false while skipping is off,
  /// so pruning counters read zero on the baseline path.
  virtual bool CanSkipRange(const Value* lo, const Value* hi,
                            size_t row_begin, size_t row_end) const {
    (void)lo;
    (void)hi;
    (void)row_begin;
    (void)row_end;
    return false;
  }
};

}  // namespace hytap

#endif  // HYTAP_STORAGE_COLUMN_H_
