#include "query/statistics.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/assert.h"
#include "storage/dictionary_column.h"

namespace hytap {

double Histogram::ToDouble(const Value& v) {
  switch (v.type()) {
    case DataType::kInt32:
      return double(v.AsInt32());
    case DataType::kInt64:
      return double(v.AsInt64());
    case DataType::kFloat:
      return double(v.AsFloat());
    case DataType::kDouble:
      return v.AsDouble();
    case DataType::kString:
      HYTAP_UNREACHABLE("no histogram over strings");
  }
  HYTAP_UNREACHABLE("invalid DataType");
}

Histogram Histogram::Build(const std::vector<Value>& values,
                           size_t bucket_count) {
  Histogram h;
  if (values.empty() || values[0].type() == DataType::kString) return h;
  HYTAP_ASSERT(bucket_count >= 1, "need at least one bucket");
  h.row_count_ = values.size();
  h.min_ = h.max_ = ToDouble(values[0]);
  for (const Value& v : values) {
    const double x = ToDouble(v);
    h.min_ = std::min(h.min_, x);
    h.max_ = std::max(h.max_, x);
  }
  if (h.max_ == h.min_) bucket_count = 1;
  h.bucket_width_ = (h.max_ - h.min_) / double(bucket_count);
  if (h.bucket_width_ == 0.0) h.bucket_width_ = 1.0;
  h.buckets_.assign(bucket_count, 0);
  std::vector<std::set<double>> distinct(bucket_count);
  for (const Value& v : values) {
    const double x = ToDouble(v);
    size_t b = size_t((x - h.min_) / h.bucket_width_);
    if (b >= bucket_count) b = bucket_count - 1;
    ++h.buckets_[b];
    // Exact per-bucket distinct sets are fine at our statistics sample
    // sizes; production systems would use sketches here.
    distinct[b].insert(x);
  }
  h.bucket_distincts_.resize(bucket_count);
  for (size_t b = 0; b < bucket_count; ++b) {
    h.bucket_distincts_[b] = std::max<uint64_t>(1, distinct[b].size());
  }
  return h;
}

template <typename T>
Histogram Histogram::FromDistinct(const std::vector<T>& distinct,
                                  const std::vector<uint64_t>& counts,
                                  size_t bucket_count) {
  HYTAP_ASSERT(distinct.size() == counts.size(), "one count per value");
  Histogram h;
  if (distinct.empty()) return h;
  HYTAP_ASSERT(bucket_count >= 1, "need at least one bucket");
  for (uint64_t count : counts) {
    HYTAP_ASSERT(count > 0, "distinct value without rows");
    h.row_count_ += count;
  }
  h.min_ = double(distinct.front());
  h.max_ = double(distinct.back());
  if (h.max_ == h.min_) bucket_count = 1;
  h.bucket_width_ = (h.max_ - h.min_) / double(bucket_count);
  if (h.bucket_width_ == 0.0) h.bucket_width_ = 1.0;
  h.buckets_.assign(bucket_count, 0);
  h.bucket_distincts_.assign(bucket_count, 0);
  for (size_t i = 0; i < distinct.size(); ++i) {
    const double x = double(distinct[i]);
    size_t b = size_t((x - h.min_) / h.bucket_width_);
    if (b >= bucket_count) b = bucket_count - 1;
    h.buckets_[b] += counts[i];
    // Distinct int64 values above 2^53 can round to one double; Build
    // counts distinct doubles, which sit next to each other here.
    if (i == 0 || x != double(distinct[i - 1])) ++h.bucket_distincts_[b];
  }
  for (uint64_t& d : h.bucket_distincts_) d = std::max<uint64_t>(1, d);
  return h;
}

template Histogram Histogram::FromDistinct(const std::vector<int32_t>&,
                                           const std::vector<uint64_t>&,
                                           size_t);
template Histogram Histogram::FromDistinct(const std::vector<int64_t>&,
                                           const std::vector<uint64_t>&,
                                           size_t);
template Histogram Histogram::FromDistinct(const std::vector<float>&,
                                           const std::vector<uint64_t>&,
                                           size_t);
template Histogram Histogram::FromDistinct(const std::vector<double>&,
                                           const std::vector<uint64_t>&,
                                           size_t);

double Histogram::EstimateRangeSelectivity(const Value* lo,
                                           const Value* hi) const {
  if (empty() || row_count_ == 0) return 1.0;
  const double lo_x = lo == nullptr ? min_ : ToDouble(*lo);
  const double hi_x = hi == nullptr ? max_ : ToDouble(*hi);
  if (hi_x < lo_x) return 0.0;
  double rows = 0.0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    const double b_lo = min_ + double(b) * bucket_width_;
    const double b_hi = b_lo + bucket_width_;
    const double overlap_lo = std::max(lo_x, b_lo);
    const double overlap_hi = std::min(hi_x, b_hi);
    if (overlap_hi <= overlap_lo) {
      // Point overlap at a closed boundary still counts for equality-like
      // ranges.
      if (overlap_hi == overlap_lo && lo_x == hi_x && lo_x >= b_lo &&
          lo_x <= b_hi) {
        rows += double(buckets_[b]) / double(bucket_distincts_[b]);
        break;
      }
      continue;
    }
    const double fraction = (overlap_hi - overlap_lo) / bucket_width_;
    rows += double(buckets_[b]) * std::min(1.0, fraction);
  }
  return std::min(1.0, rows / double(row_count_));
}

double Histogram::EstimateEqualitySelectivity(const Value& value) const {
  if (empty() || row_count_ == 0) return 1.0;
  const double x = ToDouble(value);
  if (x < min_ || x > max_) return 0.0;
  size_t b = size_t((x - min_) / bucket_width_);
  if (b >= buckets_.size()) b = buckets_.size() - 1;
  const double rows =
      double(buckets_[b]) / double(bucket_distincts_[b]);
  return std::min(1.0, rows / double(row_count_));
}

TableStatistics TableStatistics::Build(
    const Schema& schema,
    const std::vector<std::vector<Value>>& column_values,
    size_t bucket_count) {
  HYTAP_ASSERT(column_values.size() == schema.size(),
               "column arity mismatch");
  std::vector<Column> columns(schema.size());
  for (ColumnId c = 0; c < schema.size(); ++c) {
    if (schema[c].type != DataType::kString) {
      columns[c].histogram = Histogram::Build(column_values[c], bucket_count);
      continue;
    }
    // Distinct estimate for the fallback path.
    std::set<std::string> distinct;
    for (const Value& v : column_values[c]) distinct.insert(v.AsString());
    if (!distinct.empty()) {
      columns[c].distinct_fraction = 1.0 / double(distinct.size());
    }
  }
  return TableStatistics(std::move(columns));
}

TableStatistics::Column TableStatistics::BuildColumn(const AbstractColumn& mrc,
                                                    size_t bucket_count) {
  Column column;
  if (mrc.type() == DataType::kString) {
    if (mrc.distinct_count() > 0) {
      column.distinct_fraction = 1.0 / double(mrc.distinct_count());
    }
    return column;
  }
  std::visit(
      [&](const auto& type_tag) {
        using T = typename std::decay_t<decltype(type_tag)>::value_type;
        if constexpr (!std::is_same_v<T, std::string>) {
          const auto& typed = dynamic_cast<const DictionaryColumn<T>&>(mrc);
          column.histogram = Histogram::FromDistinct(
              typed.dictionary().values(), typed.CodeCounts(), bucket_count);
        }
      },
      MakeColumnValues(mrc.type()));
  return column;
}

double TableStatistics::EstimateSelectivity(ColumnId column, const Value* lo,
                                            const Value* hi) const {
  HYTAP_ASSERT(column < columns_.size(), "column out of range");
  const Histogram& h = columns_[column].histogram;
  if (h.empty()) {
    // String / unsupported column: equality uses 1/distinct; open ranges are
    // assumed unselective.
    if (lo != nullptr && hi != nullptr && *lo == *hi) {
      return columns_[column].distinct_fraction;
    }
    return 0.5;
  }
  if (lo != nullptr && hi != nullptr && *lo == *hi) {
    return h.EstimateEqualitySelectivity(*lo);
  }
  return h.EstimateRangeSelectivity(lo, hi);
}

}  // namespace hytap
