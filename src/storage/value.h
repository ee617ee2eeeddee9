#ifndef HYTAP_STORAGE_VALUE_H_
#define HYTAP_STORAGE_VALUE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

namespace hytap {

/// Column data types supported by the engine. Strings are fixed-width when
/// placed in a row-oriented SSCG (the schema declares the width).
enum class DataType : uint8_t {
  kInt32 = 0,
  kInt64 = 1,
  kFloat = 2,
  kDouble = 3,
  kString = 4,
};

/// Returns a human-readable name ("int32", ...).
const char* DataTypeName(DataType type);

/// Fixed on-page width in bytes for a value of `type`; strings use
/// `string_width` (their declared maximum length).
size_t FixedWidth(DataType type, size_t string_width);

/// A dynamically typed cell value. Used at API boundaries (inserts, tuple
/// reconstruction, predicate literals); hot loops operate on decoded typed
/// vectors instead.
class Value {
 public:
  Value() : data_(int32_t{0}) {}
  explicit Value(int32_t v) : data_(v) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(float v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  DataType type() const;

  int32_t AsInt32() const { return std::get<int32_t>(data_); }
  int64_t AsInt64() const { return std::get<int64_t>(data_); }
  float AsFloat() const { return std::get<float>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  /// Typed access by C++ type (T must be the value's type).
  template <typename T>
  const T& As() const {
    return std::get<T>(data_);
  }

  /// Three-way comparison; both values must have the same type.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  std::string ToString() const;

  /// Serializes into `dest` using exactly `width` bytes (strings are
  /// zero-padded / truncated to `width`). Used by the SSCG row layout.
  void SerializeFixed(uint8_t* dest, size_t width) const;

  /// Deserializes a value of `type` from `src` (`width` bytes).
  static Value DeserializeFixed(const uint8_t* src, DataType type,
                                size_t width);

 private:
  std::variant<int32_t, int64_t, float, double, std::string> data_;
};

/// A full or partial tuple.
using Row = std::vector<Value>;

/// Typed twins of Value::SerializeFixed / DeserializeFixed, writing and
/// reading the same bytes: numbers in their native width, strings
/// zero-padded to `width` and trimmed of trailing NULs. The SSCG's
/// column-wise writes and slot decodes use them without boxing.
template <typename T>
void WriteFixed(const T& v, uint8_t* dest, size_t width) {
  if constexpr (std::is_same_v<T, std::string>) {
    const size_t n = v.size() < width ? v.size() : width;
    std::memcpy(dest, v.data(), n);
    if (n < width) std::memset(dest + n, 0, width - n);
  } else {
    (void)width;
    std::memcpy(dest, &v, sizeof(T));
  }
}

template <typename T>
T ReadFixed(const uint8_t* src, size_t width) {
  if constexpr (std::is_same_v<T, std::string>) {
    size_t len = width;
    while (len > 0 && src[len - 1] == 0) --len;
    return std::string(reinterpret_cast<const char*>(src), len);
  } else {
    (void)width;
    T v;
    std::memcpy(&v, src, sizeof(T));
    return v;
  }
}

/// True if `s` survives a fixed-width round trip at `width` bytes: it is no
/// longer than `width` and does not end in a NUL byte (which the read would
/// trim). Tables reject strings that fail this, so moving a column between
/// DRAM and the SSCG never changes a value.
inline bool FitsFixedWidth(const std::string& s, size_t width) {
  return s.size() <= width && (s.empty() || s.back() != '\0');
}

}  // namespace hytap

#endif  // HYTAP_STORAGE_VALUE_H_
