#ifndef HYTAP_STORAGE_SLOT_SYNOPSIS_H_
#define HYTAP_STORAGE_SLOT_SYNOPSIS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/row_layout.h"
#include "storage/value.h"

namespace hytap {

/// Per-page min/max bounds for every numeric member slot of an SSCG.
///
/// Built once from the intended page images when the group is written (a
/// placement change or a merge), never from bytes read back: the synopsis
/// keeps describing the data that was *meant* to be on a page even if the
/// media corrupts it on the write or later, so a pruned page is provably
/// irrelevant to the query and skipping it can only reproduce the
/// fault-free answer.
///
/// Bounds are widened to the slot's native domain (int32/int64 -> int64,
/// float/double -> double) and stored as 16 bytes per (page, slot). String
/// slots carry no synopsis (their scans never prune) — this caps the
/// metadata at 16 B x pages x numeric-slots, a few MB even for the widest
/// benchmark groups.
class SlotSynopsis {
 public:
  SlotSynopsis() = default;

  /// Empty bounds for `pages` pages of `layout`'s numeric slots; AddPage
  /// fills them.
  SlotSynopsis(const RowLayout& layout, size_t pages);

  /// Sets the bounds of page `page` from its image: `rows` rows serialized
  /// per `layout` from the start of `image`.
  void AddPage(const RowLayout& layout, size_t page, const uint8_t* image,
               size_t rows);

  /// True if `slot` carries bounds (numeric, non-empty group).
  bool has_slot(size_t slot) const {
    return slot < mins_.size() && !mins_[slot].empty();
  }

  /// True when no row on `page` can satisfy the closed interval [lo, hi]
  /// (null = unbounded) on member slot `slot`. Conservative: false for
  /// string slots, unknown pages, or overlapping bounds.
  bool Prunes(size_t page, size_t slot, const Value* lo,
              const Value* hi) const;

  size_t MemoryUsage() const;

  /// Same slot types and bit-identical bounds.
  bool operator==(const SlotSynopsis& other) const;

 private:
  union Bound {
    int64_t i;
    double d;
  };

  std::vector<DataType> types_;              // per slot
  std::vector<std::vector<Bound>> mins_;     // [slot][page]; empty = no bounds
  std::vector<std::vector<Bound>> maxs_;
};

}  // namespace hytap

#endif  // HYTAP_STORAGE_SLOT_SYNOPSIS_H_
