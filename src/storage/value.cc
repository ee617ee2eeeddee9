#include "storage/value.h"

#include "common/assert.h"

namespace hytap {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kInt32:
      return "int32";
    case DataType::kInt64:
      return "int64";
    case DataType::kFloat:
      return "float";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "unknown";
}

size_t FixedWidth(DataType type, size_t string_width) {
  switch (type) {
    case DataType::kInt32:
      return 4;
    case DataType::kInt64:
      return 8;
    case DataType::kFloat:
      return 4;
    case DataType::kDouble:
      return 8;
    case DataType::kString:
      return string_width;
  }
  HYTAP_UNREACHABLE("invalid DataType");
}

DataType Value::type() const {
  return static_cast<DataType>(data_.index());
}

int Value::Compare(const Value& other) const {
  HYTAP_ASSERT(type() == other.type(), "comparing values of different types");
  return std::visit(
      [&other](const auto& lhs) -> int {
        using T = std::decay_t<decltype(lhs)>;
        const T& rhs = std::get<T>(other.data_);
        if (lhs < rhs) return -1;
        if (rhs < lhs) return 1;
        return 0;
      },
      data_);
}

std::string Value::ToString() const {
  switch (type()) {
    case DataType::kInt32:
      return std::to_string(AsInt32());
    case DataType::kInt64:
      return std::to_string(AsInt64());
    case DataType::kFloat:
      return std::to_string(AsFloat());
    case DataType::kDouble:
      return std::to_string(AsDouble());
    case DataType::kString:
      return AsString();
  }
  HYTAP_UNREACHABLE("invalid DataType");
}

void Value::SerializeFixed(uint8_t* dest, size_t width) const {
  std::visit(
      [&](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (!std::is_same_v<T, std::string>) {
          HYTAP_ASSERT(width == sizeof(T), "width mismatch for numeric value");
        }
        WriteFixed(v, dest, width);
      },
      data_);
}

Value Value::DeserializeFixed(const uint8_t* src, DataType type,
                              size_t width) {
  switch (type) {
    case DataType::kInt32:
      return Value(ReadFixed<int32_t>(src, width));
    case DataType::kInt64:
      return Value(ReadFixed<int64_t>(src, width));
    case DataType::kFloat:
      return Value(ReadFixed<float>(src, width));
    case DataType::kDouble:
      return Value(ReadFixed<double>(src, width));
    case DataType::kString:
      return Value(ReadFixed<std::string>(src, width));
  }
  HYTAP_UNREACHABLE("invalid DataType");
}

}  // namespace hytap
