#include "storage/dictionary.h"

#include <algorithm>

#include "common/assert.h"

namespace hytap {

namespace {

template <typename T>
size_t PayloadBytes(const std::vector<T>& values) {
  if constexpr (std::is_same_v<T, std::string>) {
    size_t total = values.capacity() * sizeof(std::string);
    for (const auto& s : values) total += s.capacity();
    return total;
  } else {
    return values.capacity() * sizeof(T);
  }
}

}  // namespace

template <typename T>
OrderPreservingDictionary<T> OrderPreservingDictionary<T>::Build(
    const std::vector<T>& values, std::vector<ValueId>* codes) {
  // Each distinct value is copied once, so a string holds exactly the
  // capacity of a fresh copy (std::unique over the strings themselves could
  // leave a short string in a longer duplicate's buffer).
  OrderPreservingDictionary dict;
  if (codes != nullptr) codes->resize(values.size());
  ForEachDistinct(values, [&](const T& value, const uint32_t* rows,
                              size_t count) {
    if (codes != nullptr) {
      const auto code = static_cast<ValueId>(dict.values_.size());
      for (size_t k = 0; k < count; ++k) (*codes)[rows[k]] = code;
    }
    dict.values_.push_back(value);
  });
  dict.values_.shrink_to_fit();
  return dict;
}

template <typename T>
OrderPreservingDictionary<T> OrderPreservingDictionary<T>::FromSorted(
    const std::vector<T>& sorted) {
  HYTAP_ASSERT(std::adjacent_find(sorted.begin(), sorted.end(),
                                  [](const T& a, const T& b) {
                                    return !(a < b);
                                  }) == sorted.end(),
               "dictionary values must be sorted and unique");
  OrderPreservingDictionary dict;
  dict.values_.assign(sorted.begin(), sorted.end());
  return dict;
}

template <typename T>
std::optional<ValueId> OrderPreservingDictionary<T>::CodeFor(
    const T& value) const {
  auto it = std::lower_bound(values_.begin(), values_.end(), value);
  if (it == values_.end() || *it != value) return std::nullopt;
  return static_cast<ValueId>(it - values_.begin());
}

template <typename T>
ValueId OrderPreservingDictionary<T>::LowerBoundCode(const T& value) const {
  auto it = std::lower_bound(values_.begin(), values_.end(), value);
  return static_cast<ValueId>(it - values_.begin());
}

template <typename T>
ValueId OrderPreservingDictionary<T>::UpperBoundCode(const T& value) const {
  auto it = std::upper_bound(values_.begin(), values_.end(), value);
  return static_cast<ValueId>(it - values_.begin());
}

template <typename T>
const T& OrderPreservingDictionary<T>::ValueFor(ValueId code) const {
  HYTAP_ASSERT(code < values_.size(), "dictionary code out of range");
  return values_[code];
}

template <typename T>
size_t OrderPreservingDictionary<T>::MemoryUsage() const {
  return PayloadBytes(values_);
}

template <typename T>
ValueId UnsortedDictionary<T>::GetOrAdd(const T& value) {
  auto [it, inserted] =
      value_ids_.try_emplace(value, static_cast<ValueId>(values_.size()));
  if (inserted) values_.push_back(value);
  return it->second;
}

template <typename T>
std::optional<ValueId> UnsortedDictionary<T>::CodeFor(const T& value) const {
  auto it = value_ids_.find(value);
  if (it == value_ids_.end()) return std::nullopt;
  return it->second;
}

template <typename T>
const T& UnsortedDictionary<T>::ValueFor(ValueId code) const {
  HYTAP_ASSERT(code < values_.size(), "dictionary code out of range");
  return values_[code];
}

template <typename T>
size_t UnsortedDictionary<T>::MemoryUsage() const {
  // Hash-map overhead approximated by bucket pointers + nodes.
  return PayloadBytes(values_) +
         value_ids_.bucket_count() * sizeof(void*) +
         value_ids_.size() * (sizeof(T) + sizeof(ValueId) + 2 * sizeof(void*));
}

template class OrderPreservingDictionary<int32_t>;
template class OrderPreservingDictionary<int64_t>;
template class OrderPreservingDictionary<float>;
template class OrderPreservingDictionary<double>;
template class OrderPreservingDictionary<std::string>;

template class UnsortedDictionary<int32_t>;
template class UnsortedDictionary<int64_t>;
template class UnsortedDictionary<float>;
template class UnsortedDictionary<double>;
template class UnsortedDictionary<std::string>;

}  // namespace hytap
