#include "common/env.h"

#include <strings.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <initializer_list>

namespace hytap {

bool EnvBool(const char* name, bool fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  for (const char* off : {"0", "off", "false", "no"}) {
    if (strcasecmp(value, off) == 0) return false;
  }
  for (const char* on : {"1", "on", "true", "yes"}) {
    if (strcasecmp(value, on) == 0) return true;
  }
  return fallback;
}

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  // strtoull would also take leading blanks, a sign, and negate "-1" into
  // 2^64 - 1; only plain digits are a number here.
  if (value == nullptr || !std::isdigit(static_cast<unsigned char>(*value))) {
    return fallback;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (*end != '\0' || errno == ERANGE) return fallback;
  return parsed;
}

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0' ||
      std::isspace(static_cast<unsigned char>(*value))) {
    return fallback;
  }
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (*end != '\0' || errno == ERANGE || !std::isfinite(parsed)) {
    return fallback;
  }
  return parsed;
}

}  // namespace hytap
