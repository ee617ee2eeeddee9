// Strict numeric flag values for the command-line tools: the whole token
// must be a number of the target type's kind and range, so `--seed abc`,
// `--budget 0.5x` or a trailing flag with no value is a usage error instead
// of a silent 0.

#ifndef HYTAP_TOOLS_CLI_FLAGS_H_
#define HYTAP_TOOLS_CLI_FLAGS_H_

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <type_traits>

namespace hytap {

/// Reads the value that follows the flag at argv[*i] into *out and advances
/// *i past it. Unsigned types take base-10 digits only (no sign, no
/// whitespace) and reject values above the type's maximum; double takes any
/// finite strtod number. Returns false, leaving *out unchanged, when the
/// value is missing or does not parse in full.
template <typename T>
bool NextNumber(int argc, char** argv, int* i, T* out) {
  static_assert(std::is_unsigned_v<T> || std::is_same_v<T, double>);
  if (*i + 1 >= argc) return false;
  const char* text = argv[++*i];
  char* end = nullptr;
  errno = 0;
  if constexpr (std::is_same_v<T, double>) {
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(value)) {
      return false;
    }
    *out = value;
  } else {
    if (*text < '0' || *text > '9') return false;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE ||
        value > std::numeric_limits<T>::max()) {
      return false;
    }
    *out = T(value);
  }
  return true;
}

}  // namespace hytap

#endif  // HYTAP_TOOLS_CLI_FLAGS_H_
