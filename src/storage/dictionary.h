#ifndef HYTAP_STORAGE_DICTIONARY_H_
#define HYTAP_STORAGE_DICTIONARY_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/assert.h"
#include "common/types.h"

namespace hytap {

/// Calls fn(value, rows, count) for each distinct value of `values`,
/// ascending; rows[0, count) are the positions holding it. Sorts positions,
/// not values, so no value is moved or copied unless fn copies it.
template <typename T, typename Fn>
void ForEachDistinct(const std::vector<T>& values, Fn&& fn) {
  HYTAP_ASSERT(values.size() <= UINT32_MAX, "too many values for one sort");
  std::vector<uint32_t> order(values.size());
  std::iota(order.begin(), order.end(), uint32_t{0});
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return values[a] < values[b];
  });
  for (size_t i = 0; i < order.size();) {
    const T& value = values[order[i]];
    size_t end = i + 1;
    while (end < order.size() && values[order[end]] == value) ++end;
    fn(value, order.data() + i, end - i);
    i = end;
  }
}

/// Order-preserving dictionary for the read-optimized main partition.
///
/// Values are stored sorted and deduplicated, so value-id order equals value
/// order: range predicates translate to code-range predicates and scans can
/// run on compressed data with late materialization (paper §II-A).
template <typename T>
class OrderPreservingDictionary {
 public:
  OrderPreservingDictionary() = default;

  /// Builds from arbitrary (unsorted, possibly duplicated) values. The
  /// payload vector's capacity equals its size and each string holds the
  /// capacity of a fresh copy, so MemoryUsage depends only on the distinct
  /// values, not on the input order. A non-null `codes` receives every
  /// value's code, in input order, from the same sort.
  static OrderPreservingDictionary Build(const std::vector<T>& values,
                                         std::vector<ValueId>* codes = nullptr);

  /// Adopts values that are already sorted and unique, copied in that
  /// order into exactly sized storage (so MemoryUsage matches Build over
  /// the same values).
  static OrderPreservingDictionary FromSorted(const std::vector<T>& sorted);

  /// Exact-match code; nullopt if the value is not in the dictionary.
  std::optional<ValueId> CodeFor(const T& value) const;

  /// First code whose value is >= `value` (may be size() = past-the-end).
  ValueId LowerBoundCode(const T& value) const;

  /// First code whose value is > `value`.
  ValueId UpperBoundCode(const T& value) const;

  const T& ValueFor(ValueId code) const;

  /// Every value, ascending (code order).
  const std::vector<T>& values() const { return values_; }

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Heap bytes used by the dictionary payload.
  size_t MemoryUsage() const;

 private:
  std::vector<T> values_;  // sorted, unique
};

/// Unsorted dictionary for the write-optimized delta partition: codes are
/// assigned in insertion order; a hash map gives O(1) value lookup
/// (the B+-tree index on top gives ordered access, paper §II).
template <typename T>
class UnsortedDictionary {
 public:
  UnsortedDictionary() = default;

  /// Returns the existing code for `value` or assigns the next one.
  ValueId GetOrAdd(const T& value);

  std::optional<ValueId> CodeFor(const T& value) const;
  const T& ValueFor(ValueId code) const;

  size_t size() const { return values_.size(); }

  size_t MemoryUsage() const;

 private:
  std::vector<T> values_;                      // code -> value
  std::unordered_map<T, ValueId> value_ids_;   // value -> code
};

extern template class OrderPreservingDictionary<int32_t>;
extern template class OrderPreservingDictionary<int64_t>;
extern template class OrderPreservingDictionary<float>;
extern template class OrderPreservingDictionary<double>;
extern template class OrderPreservingDictionary<std::string>;

extern template class UnsortedDictionary<int32_t>;
extern template class UnsortedDictionary<int64_t>;
extern template class UnsortedDictionary<float>;
extern template class UnsortedDictionary<double>;
extern template class UnsortedDictionary<std::string>;

}  // namespace hytap

#endif  // HYTAP_STORAGE_DICTIONARY_H_
