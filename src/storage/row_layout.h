#ifndef HYTAP_STORAGE_ROW_LAYOUT_H_
#define HYTAP_STORAGE_ROW_LAYOUT_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "storage/column.h"

namespace hytap {

/// Fixed-width row layout of a Secondary Storage Column Group (SSCG).
///
/// The member attributes of an SSCG are stored adjacently and uncompressed
/// (paper §II-A): trading space for perfect point-access locality, so a
/// full-width tuple reconstruction touches a single 4 KB page. Rows never
/// span pages.
class RowLayout {
 public:
  /// Builds the layout for the subset `member_columns` (table column ids) of
  /// `schema`. The combined row width must fit into one page.
  RowLayout(const Schema& schema, std::vector<ColumnId> member_columns);

  size_t row_width() const { return row_width_; }
  size_t rows_per_page() const { return rows_per_page_; }
  const std::vector<ColumnId>& member_columns() const {
    return member_columns_;
  }
  size_t member_count() const { return member_columns_.size(); }

  /// Returns the slot index of table column `column`, or -1 if the column is
  /// not a member of this group.
  int SlotOf(ColumnId column) const;

  /// Data type stored in member slot `slot`.
  DataType slot_type(size_t slot) const { return slots_[slot].type; }

  /// Byte offset of member slot `slot` inside a row, and its width.
  size_t slot_offset(size_t slot) const { return slots_[slot].offset; }
  size_t slot_width(size_t slot) const { return slots_[slot].width; }

  /// Page that holds `row`, and the byte offset of the row inside the page.
  PageId PageOf(RowId row) const { return row / rows_per_page_; }
  size_t OffsetInPage(RowId row) const {
    return (row % rows_per_page_) * row_width_;
  }

  /// Number of pages needed for `rows` rows.
  size_t PageCountFor(size_t rows) const {
    return rows == 0 ? 0 : (rows + rows_per_page_ - 1) / rows_per_page_;
  }

  /// Serializes `values` (one per member slot, in member order) at `dest`.
  void SerializeRow(const Row& values, uint8_t* dest) const;

  /// Deserializes the value of member slot `slot` from a row at `src`.
  Value DeserializeSlot(const uint8_t* src, size_t slot) const;

  /// Deserializes the full row (member order).
  Row DeserializeRow(const uint8_t* src) const;

 private:
  struct Slot {
    size_t offset;
    size_t width;
    DataType type;
  };

  std::vector<ColumnId> member_columns_;
  std::vector<Slot> slots_;
  std::vector<int> slot_of_;  // table column id -> slot or -1
  size_t row_width_;
  size_t rows_per_page_;
};

}  // namespace hytap

#endif  // HYTAP_STORAGE_ROW_LAYOUT_H_
