#include "storage/dictionary_column.h"

#include <algorithm>

#include "common/assert.h"

namespace hytap {

namespace {

template <typename T>
T Unbox(const Value& v);

template <>
int32_t Unbox<int32_t>(const Value& v) { return v.AsInt32(); }
template <>
int64_t Unbox<int64_t>(const Value& v) { return v.AsInt64(); }
template <>
float Unbox<float>(const Value& v) { return v.AsFloat(); }
template <>
double Unbox<double>(const Value& v) { return v.AsDouble(); }
template <>
std::string Unbox<std::string>(const Value& v) { return v.AsString(); }

template <typename T>
constexpr DataType TypeOf() {
  if constexpr (std::is_same_v<T, int32_t>) return DataType::kInt32;
  if constexpr (std::is_same_v<T, int64_t>) return DataType::kInt64;
  if constexpr (std::is_same_v<T, float>) return DataType::kFloat;
  if constexpr (std::is_same_v<T, double>) return DataType::kDouble;
  if constexpr (std::is_same_v<T, std::string>) return DataType::kString;
}

}  // namespace

template <typename T>
std::unique_ptr<DictionaryColumn<T>> DictionaryColumn<T>::Build(
    const std::vector<T>& values) {
  std::vector<ValueId> row_codes;
  auto dictionary = OrderPreservingDictionary<T>::Build(values, &row_codes);
  const uint64_t max_code = dictionary.empty() ? 0 : dictionary.size() - 1;
  BitPackedVector codes(BitPackedVector::BitsFor(max_code));
  codes.Reserve(values.size());
  for (ValueId code : row_codes) codes.Append(code);
  return std::unique_ptr<DictionaryColumn<T>>(
      new DictionaryColumn<T>(std::move(dictionary), std::move(codes)));
}

template <typename T>
std::unique_ptr<DictionaryColumn<T>> DictionaryColumn<T>::Merge(
    const DictionaryColumn<T>& main, const std::vector<RowId>& kept,
    const std::vector<T>& appended) {
  const std::vector<T>& old_values = main.dictionary_.values();
  std::vector<uint64_t> old_codes(main.size());
  main.codes_.DecodeRange(0, main.size(), old_codes.data());
  std::vector<uint8_t> used(old_values.size(), 0);
  for (RowId row : kept) used[old_codes[row]] = 1;
  std::vector<T> fresh;
  ForEachDistinct(appended, [&](const T& value, const uint32_t*, size_t) {
    fresh.push_back(value);
  });
  // Merge the used main entries with the fresh values, both ascending.
  std::vector<ValueId> old_to_new(old_values.size(), kInvalidValueId);
  std::vector<T> merged;
  size_t i = 0, j = 0;
  while (i < old_values.size() || j < fresh.size()) {
    if (i < old_values.size() && !used[i]) {
      ++i;
    } else if (j == fresh.size() ||
               (i < old_values.size() && !(fresh[j] < old_values[i]))) {
      if (j < fresh.size() && fresh[j] == old_values[i]) ++j;
      old_to_new[i] = static_cast<ValueId>(merged.size());
      merged.push_back(old_values[i++]);
    } else {
      merged.push_back(fresh[j++]);
    }
  }
  auto dictionary = OrderPreservingDictionary<T>::FromSorted(merged);
  const uint64_t max_code = dictionary.empty() ? 0 : dictionary.size() - 1;
  BitPackedVector codes(BitPackedVector::BitsFor(max_code));
  codes.Reserve(kept.size() + appended.size());
  for (RowId row : kept) codes.Append(old_to_new[old_codes[row]]);
  for (const T& value : appended) codes.Append(*dictionary.CodeFor(value));
  return std::unique_ptr<DictionaryColumn<T>>(
      new DictionaryColumn<T>(std::move(dictionary), std::move(codes)));
}

template <typename T>
std::vector<T> DictionaryColumn<T>::Decode() const {
  std::vector<uint64_t> codes(size());
  codes_.DecodeRange(0, size(), codes.data());
  std::vector<T> values;
  values.reserve(size());
  for (uint64_t code : codes) {
    values.push_back(dictionary_.ValueFor(static_cast<ValueId>(code)));
  }
  return values;
}

template <typename T>
std::vector<uint64_t> DictionaryColumn<T>::CodeCounts() const {
  std::vector<uint64_t> codes(size());
  codes_.DecodeRange(0, size(), codes.data());
  std::vector<uint64_t> counts(dictionary_.size(), 0);
  for (uint64_t code : codes) ++counts[code];
  return counts;
}

template <typename T>
DataType DictionaryColumn<T>::type() const {
  return TypeOf<T>();
}

template <typename T>
Value DictionaryColumn<T>::GetValue(RowId row) const {
  return Value(Get(row));
}

template <typename T>
bool DictionaryColumn<T>::CodeRange(const Value* lo, const Value* hi,
                                    ValueId* code_lo,
                                    ValueId* code_hi) const {
  *code_lo = 0;
  *code_hi = static_cast<ValueId>(dictionary_.size());
  if (lo != nullptr) *code_lo = dictionary_.LowerBoundCode(Unbox<T>(*lo));
  if (hi != nullptr) *code_hi = dictionary_.UpperBoundCode(Unbox<T>(*hi));
  return *code_lo < *code_hi;
}

template <typename T>
void DictionaryColumn<T>::ScanBetween(const Value* lo, const Value* hi,
                                      PositionList* out) const {
  ScanBetweenRange(lo, hi, 0, codes_.size(), out);
}

template <typename T>
void DictionaryColumn<T>::ScanBetweenRange(const Value* lo, const Value* hi,
                                           size_t row_begin, size_t row_end,
                                           PositionList* out) const {
  ValueId code_lo, code_hi;
  // Dictionary-domain short-circuit: a predicate interval that misses
  // [dict.min, dict.max] — or falls between two adjacent dictionary values —
  // yields an empty code interval and never touches the code vector.
  if (!CodeRange(lo, hi, &code_lo, &code_hi)) return;
  row_end = std::min(row_end, codes_.size());
  if (row_begin >= row_end) return;
  const bool equality = code_lo + 1 == code_hi;
  if (!ZoneMapsEnabled()) {
    if (equality) {
      // Equality on a single code: the common OLTP case.
      codes_.ScanEqual(code_lo, row_begin, row_end, out);
    } else {
      codes_.ScanRange(code_lo, code_hi, row_begin, row_end, out);
    }
    return;
  }
  // Zone-aligned chunks: a zone whose [min, max] code bounds miss the
  // predicate's code interval is skipped without decoding a single word.
  const ZoneMap& zones = codes_.zone_map();
  for (size_t chunk_begin = row_begin; chunk_begin < row_end;) {
    const size_t zone = chunk_begin / kZoneMapRows;
    const size_t chunk_end = std::min(row_end, (zone + 1) * kZoneMapRows);
    if (!zones.Prunes(chunk_begin, chunk_end, code_lo, code_hi)) {
      if (equality) {
        codes_.ScanEqual(code_lo, chunk_begin, chunk_end, out);
      } else {
        codes_.ScanRange(code_lo, code_hi, chunk_begin, chunk_end, out);
      }
    }
    chunk_begin = chunk_end;
  }
}

template <typename T>
bool DictionaryColumn<T>::CanSkipRange(const Value* lo, const Value* hi,
                                       size_t row_begin,
                                       size_t row_end) const {
  if (!ZoneMapsEnabled()) return false;
  ValueId code_lo, code_hi;
  if (!CodeRange(lo, hi, &code_lo, &code_hi)) return true;
  return codes_.zone_map().Prunes(row_begin, std::min(row_end, codes_.size()),
                                  code_lo, code_hi);
}

template <typename T>
void DictionaryColumn<T>::Probe(const Value* lo, const Value* hi,
                                const PositionList& in,
                                PositionList* out) const {
  ValueId code_lo, code_hi;
  if (!CodeRange(lo, hi, &code_lo, &code_hi)) return;
  for (RowId row : in) {
    const uint64_t code = codes_.Get(row);
    if (code >= code_lo && code < code_hi) out->push_back(row);
  }
}

std::unique_ptr<AbstractColumn> BuildDictionaryColumn(
    const ColumnDefinition& def, const std::vector<Value>& values) {
  ColumnValues typed = MakeColumnValues(def.type);
  std::visit(
      [&](auto& unboxed) {
        using T = typename std::decay_t<decltype(unboxed)>::value_type;
        unboxed.reserve(values.size());
        for (const Value& v : values) unboxed.push_back(v.As<T>());
      },
      typed);
  return BuildDictionaryColumn(typed);
}

std::unique_ptr<AbstractColumn> BuildDictionaryColumn(
    const ColumnValues& values) {
  return std::visit(
      [](const auto& typed) -> std::unique_ptr<AbstractColumn> {
        using T = typename std::decay_t<decltype(typed)>::value_type;
        return DictionaryColumn<T>::Build(typed);
      },
      values);
}

namespace {

template <typename T>
const DictionaryColumn<T>& AsDictionaryColumn(const AbstractColumn& column) {
  const auto* typed = dynamic_cast<const DictionaryColumn<T>*>(&column);
  HYTAP_ASSERT(typed != nullptr, "not a dictionary column of this type");
  return *typed;
}

}  // namespace

ColumnValues DecodeDictionaryColumn(const AbstractColumn& column) {
  ColumnValues values = MakeColumnValues(column.type());
  std::visit(
      [&](auto& typed) {
        using T = typename std::decay_t<decltype(typed)>::value_type;
        typed = AsDictionaryColumn<T>(column).Decode();
      },
      values);
  return values;
}

std::unique_ptr<AbstractColumn> MergeDictionaryColumn(
    const AbstractColumn& main, const std::vector<RowId>& kept,
    const ColumnValues& appended) {
  HYTAP_ASSERT(appended.index() == size_t(main.type()),
               "appended values type mismatch");
  return std::visit(
      [&](const auto& typed) -> std::unique_ptr<AbstractColumn> {
        using T = typename std::decay_t<decltype(typed)>::value_type;
        return DictionaryColumn<T>::Merge(AsDictionaryColumn<T>(main), kept,
                                          typed);
      },
      appended);
}

template class DictionaryColumn<int32_t>;
template class DictionaryColumn<int64_t>;
template class DictionaryColumn<float>;
template class DictionaryColumn<double>;
template class DictionaryColumn<std::string>;

}  // namespace hytap
