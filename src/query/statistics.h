#ifndef HYTAP_QUERY_STATISTICS_H_
#define HYTAP_QUERY_STATISTICS_H_

#include <cstdint>
#include <vector>

#include "storage/column.h"
#include "storage/value.h"

namespace hytap {

/// Equi-width histogram over a numeric column, used to estimate the
/// selectivity of range predicates (paper §II-B footnote: "For inequality
/// predicates, we use heuristics similar to [27]"; §III-A: "Hyrise estimates
/// selectivities ... using distinct counts and histograms when available").
///
/// Strings fall back to distinct-count estimation (no histogram).
class Histogram {
 public:
  /// Builds a histogram with `bucket_count` equi-width buckets over the
  /// numeric values (empty histogram for strings / empty input).
  static Histogram Build(const std::vector<Value>& values,
                         size_t bucket_count = 32);

  /// Builds from a numeric column's distinct values (ascending) and the row
  /// count of each, e.g. an MRC's dictionary and code counts. Equals Build
  /// over the rows they describe, without a set entry per row.
  template <typename T>
  static Histogram FromDistinct(const std::vector<T>& distinct,
                                const std::vector<uint64_t>& counts,
                                size_t bucket_count = 32);

  bool operator==(const Histogram&) const = default;

  bool empty() const { return buckets_.empty(); }
  size_t bucket_count() const { return buckets_.size(); }
  uint64_t row_count() const { return row_count_; }
  double min() const { return min_; }
  double max() const { return max_; }

  /// Estimated fraction of rows with value in [lo, hi] (closed; null =
  /// unbounded). Uses linear interpolation inside partially covered buckets.
  double EstimateRangeSelectivity(const Value* lo, const Value* hi) const;

  /// Estimated fraction of rows equal to one value: bucket frequency divided
  /// by the bucket's estimated distinct count.
  double EstimateEqualitySelectivity(const Value& value) const;

 private:
  static double ToDouble(const Value& v);

  double min_ = 0.0;
  double max_ = 0.0;
  double bucket_width_ = 0.0;
  uint64_t row_count_ = 0;
  std::vector<uint64_t> buckets_;           // row counts
  std::vector<uint64_t> bucket_distincts_;  // approximate distinct counts
};

/// Per-table statistics: one histogram per numeric column plus distinct
/// counts for string columns; provides the executor's selectivity
/// estimates.
class TableStatistics {
 public:
  /// One column's statistics: the histogram of a numeric column, and
  /// 1/distinct for a string column (1 when empty, and for numeric columns,
  /// whose estimates never read it).
  struct Column {
    Histogram histogram;
    double distinct_fraction = 1.0;
    bool operator==(const Column&) const = default;
  };

  TableStatistics() = default;

  /// Assembles per-column statistics, in column order.
  explicit TableStatistics(std::vector<Column> columns)
      : columns_(std::move(columns)) {}

  /// Builds statistics from full column contents (boxed reference).
  static TableStatistics Build(
      const Schema& schema,
      const std::vector<std::vector<Value>>& column_values,
      size_t bucket_count = 32);

  /// One column's statistics from a column built by BuildDictionaryColumn:
  /// its MRC, or the MRC an SSCG-placed column would have. Reads the
  /// dictionary and code counts in place. Equals Build over its values.
  static Column BuildColumn(const AbstractColumn& mrc,
                            size_t bucket_count = 32);

  /// Estimated selectivity of a [lo, hi] predicate on `column`; falls back
  /// to 1/distinct when no histogram exists.
  double EstimateSelectivity(ColumnId column, const Value* lo,
                             const Value* hi) const;

  const Histogram& histogram(ColumnId column) const {
    return columns_[column].histogram;
  }
  bool has_statistics() const { return !columns_.empty(); }

  bool operator==(const TableStatistics&) const = default;

 private:
  std::vector<Column> columns_;
};

}  // namespace hytap

#endif  // HYTAP_QUERY_STATISTICS_H_
