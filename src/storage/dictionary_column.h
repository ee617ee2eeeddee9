#ifndef HYTAP_STORAGE_DICTIONARY_COLUMN_H_
#define HYTAP_STORAGE_DICTIONARY_COLUMN_H_

#include <memory>
#include <vector>

#include "storage/bit_packed_vector.h"
#include "storage/column.h"
#include "storage/dictionary.h"

namespace hytap {

/// A Memory-Resident Column (MRC, paper §II-A): a single attribute stored
/// column-oriented with an order-preserving dictionary and a bit-packed
/// value-id vector. Scans execute on compressed codes with late
/// materialization; range predicates become code-range comparisons.
template <typename T>
class DictionaryColumn : public AbstractColumn {
 public:
  /// Builds from raw values.
  static std::unique_ptr<DictionaryColumn<T>> Build(
      const std::vector<T>& values);

  /// Hyrise-style merge: the rows `kept` (ascending) of `main`, then
  /// `appended`. Merges main's sorted dictionary with the sorted distinct
  /// appended values instead of re-sorting every row, and re-encodes the
  /// kept codes through an old-to-new code map. Entries that no kept row
  /// references are dropped, so the result equals Build over the same
  /// values, byte for byte.
  static std::unique_ptr<DictionaryColumn<T>> Merge(
      const DictionaryColumn<T>& main, const std::vector<RowId>& kept,
      const std::vector<T>& appended);

  DataType type() const override;
  size_t size() const override { return codes_.size(); }
  size_t distinct_count() const override { return dictionary_.size(); }
  size_t MemoryUsage() const override {
    return dictionary_.MemoryUsage() + codes_.MemoryUsage();
  }

  Value GetValue(RowId row) const override;
  void ScanBetween(const Value* lo, const Value* hi,
                   PositionList* out) const override;
  void ScanBetweenRange(const Value* lo, const Value* hi, size_t row_begin,
                        size_t row_end, PositionList* out) const override;
  void Probe(const Value* lo, const Value* hi, const PositionList& in,
             PositionList* out) const override;
  bool CanSkipRange(const Value* lo, const Value* hi, size_t row_begin,
                    size_t row_end) const override;

  /// Typed accessor used by hot loops (no Value boxing).
  const T& Get(RowId row) const {
    return dictionary_.ValueFor(static_cast<ValueId>(codes_.Get(row)));
  }

  const OrderPreservingDictionary<T>& dictionary() const {
    return dictionary_;
  }
  const BitPackedVector& codes() const { return codes_; }

  /// Every row's value, in row order.
  std::vector<T> Decode() const;

  /// Rows holding each code (indexed by code).
  std::vector<uint64_t> CodeCounts() const;

 private:
  DictionaryColumn(OrderPreservingDictionary<T> dictionary,
                   BitPackedVector codes)
      : dictionary_(std::move(dictionary)), codes_(std::move(codes)) {}

  /// Translates a [lo, hi] value interval into a half-open code interval
  /// [code_lo, code_hi); returns false if the interval is empty.
  bool CodeRange(const Value* lo, const Value* hi, ValueId* code_lo,
                 ValueId* code_hi) const;

  OrderPreservingDictionary<T> dictionary_;
  BitPackedVector codes_;
};

/// Builds a dictionary column of the right dynamic type from boxed values
/// (all values must share `def.type`).
std::unique_ptr<AbstractColumn> BuildDictionaryColumn(
    const ColumnDefinition& def, const std::vector<Value>& values);

/// Builds a dictionary column from typed values.
std::unique_ptr<AbstractColumn> BuildDictionaryColumn(
    const ColumnValues& values);

/// Every row's value of a column built by BuildDictionaryColumn.
ColumnValues DecodeDictionaryColumn(const AbstractColumn& column);

/// DictionaryColumn<T>::Merge of a column built by BuildDictionaryColumn;
/// `appended` must hold the column's type.
std::unique_ptr<AbstractColumn> MergeDictionaryColumn(
    const AbstractColumn& main, const std::vector<RowId>& kept,
    const ColumnValues& appended);

extern template class DictionaryColumn<int32_t>;
extern template class DictionaryColumn<int64_t>;
extern template class DictionaryColumn<float>;
extern template class DictionaryColumn<double>;
extern template class DictionaryColumn<std::string>;

}  // namespace hytap

#endif  // HYTAP_STORAGE_DICTIONARY_COLUMN_H_
