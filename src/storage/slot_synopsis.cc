#include "storage/slot_synopsis.h"

#include <cstring>
#include <limits>

#include "common/assert.h"

namespace hytap {

namespace {

bool IsIntegral(DataType type) {
  return type == DataType::kInt32 || type == DataType::kInt64;
}

bool IsFloating(DataType type) {
  return type == DataType::kFloat || type == DataType::kDouble;
}

int64_t AsInt64(const Value& v, DataType type) {
  return type == DataType::kInt32 ? int64_t(v.AsInt32()) : v.AsInt64();
}

double AsDouble(const Value& v, DataType type) {
  return type == DataType::kFloat ? double(v.AsFloat()) : v.AsDouble();
}

/// Widens [*lo, *hi] over slot values of type T at `src`, `stride` apart.
template <typename T, typename Bound>
void Widen(const uint8_t* src, size_t stride, size_t rows, Bound* lo,
           Bound* hi) {
  for (size_t r = 0; r < rows; ++r, src += stride) {
    const Bound v = Bound(ReadFixed<T>(src, sizeof(T)));
    if (v < *lo) *lo = v;
    if (v > *hi) *hi = v;
  }
}

}  // namespace

SlotSynopsis::SlotSynopsis(const RowLayout& layout, size_t pages) {
  const size_t slots = layout.member_count();
  types_.resize(slots);
  mins_.resize(slots);
  maxs_.resize(slots);
  for (size_t slot = 0; slot < slots; ++slot) {
    const DataType type = layout.slot_type(slot);
    types_[slot] = type;
    if (!IsIntegral(type) && !IsFloating(type)) continue;  // strings: none
    Bound init_min, init_max;
    if (IsIntegral(type)) {
      init_min.i = std::numeric_limits<int64_t>::max();
      init_max.i = std::numeric_limits<int64_t>::min();
    } else {
      init_min.d = std::numeric_limits<double>::infinity();
      init_max.d = -std::numeric_limits<double>::infinity();
    }
    mins_[slot].assign(pages, init_min);
    maxs_[slot].assign(pages, init_max);
  }
}

void SlotSynopsis::AddPage(const RowLayout& layout, size_t page,
                           const uint8_t* image, size_t rows) {
  const size_t stride = layout.row_width();
  for (size_t slot = 0; slot < mins_.size(); ++slot) {
    if (mins_[slot].empty()) continue;
    HYTAP_ASSERT(page < mins_[slot].size(), "synopsis page out of range");
    const uint8_t* src = image + layout.slot_offset(slot);
    Bound& lo = mins_[slot][page];
    Bound& hi = maxs_[slot][page];
    switch (types_[slot]) {
      case DataType::kInt32:
        Widen<int32_t>(src, stride, rows, &lo.i, &hi.i);
        break;
      case DataType::kInt64:
        Widen<int64_t>(src, stride, rows, &lo.i, &hi.i);
        break;
      case DataType::kFloat:
        Widen<float>(src, stride, rows, &lo.d, &hi.d);
        break;
      case DataType::kDouble:
        Widen<double>(src, stride, rows, &lo.d, &hi.d);
        break;
      case DataType::kString:
        HYTAP_UNREACHABLE("string slots carry no synopsis");
    }
  }
}

bool SlotSynopsis::Prunes(size_t page, size_t slot, const Value* lo,
                          const Value* hi) const {
  if (!has_slot(slot) || page >= mins_[slot].size()) return false;
  const DataType type = types_[slot];
  if (IsIntegral(type)) {
    if (lo != nullptr && AsInt64(*lo, type) > maxs_[slot][page].i) return true;
    if (hi != nullptr && AsInt64(*hi, type) < mins_[slot][page].i) return true;
    return false;
  }
  if (lo != nullptr && AsDouble(*lo, type) > maxs_[slot][page].d) return true;
  if (hi != nullptr && AsDouble(*hi, type) < mins_[slot][page].d) return true;
  return false;
}

bool SlotSynopsis::operator==(const SlotSynopsis& other) const {
  auto same = [](const std::vector<std::vector<Bound>>& a,
                 const std::vector<std::vector<Bound>>& b) {
    if (a.size() != b.size()) return false;
    for (size_t slot = 0; slot < a.size(); ++slot) {
      if (a[slot].size() != b[slot].size()) return false;
      if (!a[slot].empty() &&
          std::memcmp(a[slot].data(), b[slot].data(),
                      a[slot].size() * sizeof(Bound)) != 0) {
        return false;
      }
    }
    return true;
  };
  return types_ == other.types_ && same(mins_, other.mins_) &&
         same(maxs_, other.maxs_);
}

size_t SlotSynopsis::MemoryUsage() const {
  size_t bytes = types_.size() * sizeof(DataType);
  for (size_t slot = 0; slot < mins_.size(); ++slot) {
    bytes += (mins_[slot].size() + maxs_[slot].size()) * sizeof(Bound);
  }
  return bytes;
}

}  // namespace hytap
